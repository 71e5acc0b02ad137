package strategy

import (
	"slices"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

// workerScratch bundles the reusable per-instance state of the lookahead
// strategies: the dataset scratch (count arrays, EntityCount buffer, bitset
// pool), a depth-indexed stack of candidate buffers so the lookahead
// recursion levels never stomp each other's candidate lists, and the
// ⌈n·log2 n⌉ table of the instance's metric. Every KLP and GainK value
// carries one, and New mints a fresh one per sibling.
type workerScratch struct {
	sc        *dataset.Scratch
	candStack [][]candidate

	// metric is the cost metric of lb0 and of the candidates' LB1.
	metric cost.Metric
	// lb0[i] = cost.LB0(metric, i) for every i up to the largest node the
	// scratch has served. It grows with the nodes served, never to a fixed
	// size: a 64-set collection needs 65 entries.
	lb0 []cost.Value

	// Buffers of orderByLB1: a count (then offset) per smaller side h of a
	// split, the h-groups present, and the sorted candidates.
	hcount []int
	groups []hGroup
	sorted []candidate
}

func newWorkerScratch(m cost.Metric) workerScratch {
	return workerScratch{sc: dataset.NewScratch(), metric: m}
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

// candidatesAt fills the depth-th candidate buffer with sub's informative
// entities and their LB1, in entity-ID order. The returned slice is owned
// by the caller until the next candidatesAt call at the same depth; deeper
// recursion uses deeper buffers and never touches it. sub must be no
// larger than the root the scratch last projected.
func (w *workerScratch) candidatesAt(depth int, sub *dataset.Subset) []candidate {
	for len(w.candStack) <= depth {
		w.candStack = append(w.candStack, nil)
	}
	infos := sub.InformativeEntitiesInto(w.sc)
	n := sub.Size()
	lb0 := w.lb0[:n+1]
	cands := slices.Grow(w.candStack[depth][:0], len(infos))
	for _, ec := range infos {
		c := ec.Count
		cands = append(cands, candidate{
			entity: ec.Entity,
			with:   c,
			lb1:    cost.Combine(w.metric, c, lb0[c], n-c, lb0[n-c]),
			uneven: abs(2*c - n),
		})
	}
	w.candStack[depth] = cands
	return cands
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

// orderByLB1 sorts the candidates of a node of n sets, which must arrive in
// entity order, into cmpLB1's order. A candidate's LB1 and unevenness
// depend only on the smaller side h = min(with, n−with) of its split, and
// candidates of distinct h never tie on both, since unevenness is n − 2h.
// So cmpLB1's order is the h-groups in (LB1, unevenness) order, each in
// entity order, and a stable counting sort by h that compares only the
// distinct h values produces it: O(candidates + n), plus a sort of the
// groups, instead of a comparison sort of the candidates.
func (w *workerScratch) orderByLB1(cands []candidate, n int) {
	half := n / 2
	w.hcount = slices.Grow(w.hcount[:0], half+1)[:half+1]
	count := w.hcount
	for _, c := range cands {
		count[min(c.with, n-c.with)]++
	}
	// Walking h downwards lists the groups nearly in order already: LB1
	// falls as the split evens out, up to the rounding of ⌈n·log2 n⌉.
	groups := w.groups[:0]
	for h := half; h >= 1; h-- {
		if count[h] > 0 {
			groups = append(groups, hGroup{cost.Combine(w.metric, h, w.lb0[h], n-h, w.lb0[n-h]), h})
		}
	}
	slices.SortFunc(groups, cmpHGroup)
	w.groups = groups
	off := 0
	for _, g := range groups {
		off, count[g.h] = off+count[g.h], off
	}
	sorted := slices.Grow(w.sorted[:0], len(cands))[:len(cands)]
	for _, c := range cands {
		h := min(c.with, n-c.with)
		sorted[count[h]] = c
		count[h]++
	}
	copy(cands, sorted)
	w.sorted = sorted
	clear(count)
}
