package strategy

import (
	"slices"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/freelist"
)

// workerScratch bundles the working memory of one selection of the
// lookahead strategies: the dataset scratch (count arrays, bitset pool, the
// view), a depth-indexed stack of per-node lists so the lookahead recursion
// levels never stomp each other's, and the ⌈n·log2 n⌉ table of the
// lineage's metric. No KLP or GainK instance owns one: each Select borrows
// one from its factory lineage's free list (newScratchList) and hands it
// back when it returns, so a sibling minted per session or per fork starts
// on warm memory and carries none between calls.
//
// Each lookahead node is counted at most once. The root of a selection is
// a view's root, whose counts are its posting lengths, and the halves of a
// split take their lists from their parent's: the first half searched
// derives both (dataset.SplitInformativeInto), and its sibling's list waits
// at its depth until the sibling is searched. A half that hits the
// lookahead cache needs no list, so one whose sibling hit it derives both.
type workerScratch struct {
	sc     *dataset.Scratch
	levels []level

	// kept holds the root's informative entities that survive exclusions.
	kept []dataset.EntityCount

	// metric is the cost metric of lb0 and of the candidates' LB1.
	metric cost.Metric
	// lb0[i] = cost.LB0(metric, i) for every i up to the largest node the
	// scratch has served. It grows with the nodes served, never to a fixed
	// size: a 64-set collection needs 65 entries.
	lb0 []cost.Value

	// Buffers of orderByLB1: a count (then offset) per smaller side h of a
	// split, and the h-groups present.
	hcount []int
	groups []hGroup
}

// level is the state of one depth of the lookahead recursion.
type level struct {
	// list holds the informative entities of the node searched at this
	// depth, every one and in entity order: the parent list its halves
	// derive theirs from. Exclusions, the beam and the candidate order
	// never touch it; each writes a buffer of its own.
	list []dataset.EntityCount
	// sibling holds, while derived, the list of the half of the split at
	// the depth above that has not been searched yet.
	sibling []dataset.EntityCount
	derived bool
	// order holds the node's candidates in cmpLB1's order.
	order []candidate
}

func newWorkerScratch(m cost.Metric) *workerScratch {
	return &workerScratch{sc: dataset.NewScratch(), metric: m}
}

// newScratchList returns the free list one factory lineage's instances
// borrow their workerScratch from, one per selection: the constructor makes
// it and New siblings share it, as they share the lookahead cache. It is
// per lineage, not process-wide, because a scratch's view keeps the
// collection it was projected from and its sets' names: a process-wide
// list would pin a replaced collection. A Select hands its scratch back
// only when it returns normally, with every subset it drew released, so a
// panic never returns nonzero count cells or a live view to the list.
func newScratchList(m cost.Metric) *freelist.List[*workerScratch] {
	return freelist.New(func() *workerScratch { return newWorkerScratch(m) })
}

// project returns the compact view of sub (see dataset.Subset.Project),
// drawn from the scratch: Release it when the selection is done. It first
// grows lb0 to cover sub, the largest node of the lookahead it roots.
func (w *workerScratch) project(sub *dataset.Subset) *dataset.Subset {
	w.growLB0(sub.Size())
	return sub.Project(w.sc)
}

// growLB0 extends lb0 to cover nodes of up to n sets.
func (w *workerScratch) growLB0(n int) {
	for i := len(w.lb0); i <= n; i++ {
		w.lb0 = append(w.lb0, cost.LB0(w.metric, i))
	}
}

// level returns the state of the given depth, growing the stack to it.
// The pointer is valid until the stack grows deeper.
func (w *workerScratch) level(depth int) *level {
	for len(w.levels) <= depth {
		w.levels = append(w.levels, level{})
	}
	return &w.levels[depth]
}

// split partitions sub, the node searched at depth, by e, and marks the
// halves, to be searched at depth+1, as not derived yet.
func (w *workerScratch) split(depth int, sub *dataset.Subset, e dataset.Entity) (with, without *dataset.Subset) {
	w.level(depth + 1).derived = false
	return sub.PartitionScratch(e, w.sc)
}

// listAt returns the informative entities of sub, the node searched at
// depth, in entity order. At depth 0 sub is the root of the selection;
// below it, sub and sibling are the halves of the last split made at the
// depth above. The returned slice stays valid until the next listAt at the
// same depth; deeper recursion uses deeper levels and never touches it.
func (w *workerScratch) listAt(depth int, sub, sibling *dataset.Subset) []dataset.EntityCount {
	if depth == 0 {
		l := w.level(0)
		l.list = sub.AppendInformative(w.sc, l.list[:0])
		return l.list
	}
	parent := w.levels[depth-1].list
	l := w.level(depth)
	if l.derived {
		l.list, l.sibling = l.sibling, l.list
		l.derived = false
		return l.list
	}
	l.list, l.sibling = dataset.SplitInformativeInto(w.sc, parent, sub, sibling, l.list[:0], l.sibling[:0])
	l.derived = true
	return l.list
}

// dropExcluded returns the entities of list, a list of view, whose IDs one
// level up, in the collection view was projected from, are not in excluded,
// in list's order. It writes them to a buffer of its own, so list stays
// whole.
func (w *workerScratch) dropExcluded(list []dataset.EntityCount, view *dataset.Subset, excluded map[dataset.Entity]bool) []dataset.EntityCount {
	kept := w.kept[:0]
	for _, ec := range list {
		if !excluded[view.GlobalEntity(ec.Entity)] {
			kept = append(kept, ec)
		}
	}
	w.kept = kept
	return kept
}

// lb1 returns the 1-step bound of a split of n sets whose smaller side has
// h sets.
func (w *workerScratch) lb1(h, n int) cost.Value {
	return cost.Combine(w.metric, h, w.lb0[h], n-h, w.lb0[n-h])
}

// minByLB1 returns the first candidate of cmpLB1's order among the
// entities of list, a list of a node of n sets in entity order, in one
// pass. ok is false when list is empty. An entity whose split has the same
// smaller side as the best so far cannot beat it: it ties on LB1 and
// evenness and comes later in entity order.
func (w *workerScratch) minByLB1(list []dataset.EntityCount, n int) (best candidate, ok bool) {
	bestH := -1
	for _, ec := range list {
		h := min(ec.Count, n-ec.Count)
		if h == bestH {
			continue
		}
		if lb1 := w.lb1(h, n); !ok || cmpHGroup(hGroup{lb1, h}, hGroup{best.lb1, bestH}) < 0 {
			best, bestH, ok = candidate{entity: ec.Entity, lb1: lb1, uneven: n - 2*h}, h, true
		}
	}
	return best, ok
}

// hGroup is the set of a node's candidates whose split has smaller side h:
// they share their LB1 and unevenness (n − 2h).
type hGroup struct {
	lb1 cost.Value
	h   int
}

// cmpHGroup orders h-groups as cmpLB1 orders their members: by LB1, then
// by evenness, which is larger h first.
func cmpHGroup(a, b hGroup) int {
	if a.lb1 != b.lb1 {
		if a.lb1 < b.lb1 {
			return -1
		}
		return 1
	}
	return b.h - a.h
}

// orderByLB1 returns the candidates of list, the informative entities of a
// node of n sets searched at depth, in entity order, sorted into cmpLB1's
// order in the depth's order buffer. A candidate's LB1 and unevenness
// depend only on the smaller side h = min(with, n−with) of its split, and
// candidates of distinct h never tie on both, since unevenness is n − 2h.
// So cmpLB1's order is the h-groups in (LB1, unevenness) order, each in
// entity order, and a stable counting sort by h that compares only the
// distinct h values produces it: O(candidates + n), plus a sort of the
// groups, instead of a comparison sort of the candidates. The result stays
// valid until the next orderByLB1 at the same depth.
func (w *workerScratch) orderByLB1(depth int, list []dataset.EntityCount, n int) []candidate {
	half := n / 2
	w.hcount = slices.Grow(w.hcount[:0], half+1)[:half+1]
	count := w.hcount
	for _, ec := range list {
		count[min(ec.Count, n-ec.Count)]++
	}
	// Walking h downwards lists the groups nearly in order already: LB1
	// falls as the split evens out, up to the rounding of ⌈n·log2 n⌉.
	groups := w.groups[:0]
	for h := half; h >= 1; h-- {
		if count[h] > 0 {
			groups = append(groups, hGroup{w.lb1(h, n), h})
		}
	}
	slices.SortFunc(groups, cmpHGroup)
	w.groups = groups
	off := 0
	for _, g := range groups {
		off, count[g.h] = off+count[g.h], off
	}
	l := w.level(depth)
	sorted := slices.Grow(l.order[:0], len(list))[:len(list)]
	for _, ec := range list {
		h := min(ec.Count, n-ec.Count)
		sorted[count[h]] = candidate{entity: ec.Entity, lb1: w.lb1(h, n), uneven: n - 2*h}
		count[h]++
	}
	l.order = sorted
	clear(count)
	return sorted
}
