package strategy

import (
	"fmt"
	"math"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/freelist"
)

// GainK is the k-step lookahead information-gain strategy of Esmeir &
// Markovitch (§2.3), the comparator of the paper's speedup experiments
// (Figs 4a/4b). With every set its own class, the k-step lookahead entropy
// of a sub-collection C is
//
//	ent_0(C)  = log2 |C|
//	ent_j(C)  = min over informative e of
//	            (|C1|·ent_{j−1}(C1) + |C2|·ent_{j−1}(C2)) / |C|
//
// and gain-k selects the entity minimising the weighted child ent_{k−1}
// (equivalently maximising the k-step gain). Crucially it has *no pruning*:
// every entity is fully evaluated at every step, giving the O(m^k·n) cost
// the paper's pruning removes. A memoised variant exists as an ablation to
// show the speedup is not mere caching.
type GainK struct {
	k     int
	memo  bool
	cache *cache.Cache[float64] // nil unless memo; shared across siblings
	// Evaluations counts entity evaluations across all recursion levels —
	// a machine-independent work measure used alongside wall time. It is
	// per-instance: siblings minted by New count their own work.
	Evaluations int64
	excluded    map[dataset.Entity]bool // active only during SelectExcluding

	// scratches lends each Select the count arrays, per-depth lists,
	// candidate buffers and partition bitsets its whole lookahead reuses,
	// allocation-free in steady state. NewGainK makes the list and New
	// siblings share it. last is the ID of the scratch the previous Select
	// borrowed, which the next one asks for first (see freelist).
	scratches *freelist.List[*workerScratch]
	last      int
}

// NewGainK returns an unmemoised gain-k strategy. k must be ≥ 1.
func NewGainK(k int) *GainK {
	if k < 1 {
		panic("strategy: gain-k requires k >= 1")
	}
	return &GainK{k: k, scratches: newScratchList(cost.AD)}
}

// NewGainKMemo returns a memoised gain-k (ablation).
func NewGainKMemo(k int) *GainK {
	g := NewGainK(k)
	g.memo = true
	g.cache = cache.New[float64](0)
	return g
}

// New implements Factory: the sibling shares the entropy memo cache (when
// memoised) and the scratch free list its selections borrow from, but
// counts its own evaluations; it copies configuration only. Cached
// entropies are exact, so sharing cannot change selections.
func (g *GainK) New() Strategy {
	sibling := *g
	sibling.Evaluations = 0
	sibling.excluded = nil
	return &sibling
}

// SetCacheBound replaces the memo cache (when memoised) with an empty one
// holding at most (approximately) n entries (cache.New; n ≤ 0 means the
// default, cache.DefaultBound, which NewGainKMemo's cache has too). Call on the factory before minting siblings. A no-op for the
// unmemoised variant.
func (g *GainK) SetCacheBound(n int) {
	if g.cache != nil {
		g.cache = cache.New[float64](n)
	}
}

// Name implements Strategy.
func (g *GainK) Name() string {
	if g.memo {
		return fmt.Sprintf("gain-%d(memo)", g.k)
	}
	return fmt.Sprintf("gain-%d", g.k)
}

// Select implements Strategy. Like k-LP it runs on the compact view of
// sub, in the same candidate order and counting each node at most once,
// so that Figs 4a/4b compare the two algorithms rather than two
// implementations; exclusions are checked by entity ID in sub's
// collection. The lookahead runs in a scratch borrowed for the call.
func (g *GainK) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	if sub.Size() <= 1 {
		return 0, false
	}
	w, id := g.scratches.Get(g.last)
	g.last = id
	root := w.project(sub)
	list := w.listAt(0, root, nil)
	if len(g.excluded) > 0 {
		list = w.dropExcluded(list, root, g.excluded)
	}
	cands := w.orderByLB1(0, list, root.Size()) // deterministic tie order: even splits first
	n := float64(root.Size())
	var best dataset.Entity
	bestVal := math.Inf(1)
	for _, cand := range cands {
		g.Evaluations++
		with, without := w.split(0, root, cand.entity)
		v := (float64(with.Size())*g.entropy(w, with, without, g.k-1) +
			float64(without.Size())*g.entropy(w, without, with, g.k-1)) / n
		with.Release()
		without.Release()
		if v < bestVal {
			best, bestVal = root.GlobalEntity(cand.entity), v
		}
	}
	root.Release()
	g.scratches.Put(w, id)
	return best, !math.IsInf(bestVal, 1)
}

// entropy computes ent_j as defined above for sub, one half of a split
// whose other half is sibling, in w, the selection's scratch.
func (g *GainK) entropy(w *workerScratch, sub, sibling *dataset.Subset, j int) float64 {
	n := sub.Size()
	if n <= 1 {
		return 0
	}
	if j == 0 {
		return math.Log2(float64(n))
	}
	var key cache.Key
	if g.memo {
		fp := sub.XORFingerprint()
		key = cache.Key{Hi: fp.Hi, Lo: fp.Lo, Aux: uint64(j)}
		if v, ok := g.cache.Get(key); ok {
			return v
		}
	}
	// Depth-indexed lists: the top-level Select owns depth 0, the ent_j
	// recursion level owns depth k−j.
	depth := g.k - j
	list := w.listAt(depth, sub, sibling)
	best := math.Inf(1)
	if j == 1 {
		// ent_1 needs only the split sizes, which the entity counts
		// already carry — no partitioning.
		for _, ec := range list {
			g.Evaluations++
			n1 := ec.Count
			v := (xlog2(n1) + xlog2(n-n1)) / float64(n)
			if v < best {
				best = v
			}
		}
	} else {
		for _, ec := range list {
			g.Evaluations++
			with, without := w.split(depth, sub, ec.Entity)
			v := (float64(with.Size())*g.entropy(w, with, without, j-1) +
				float64(without.Size())*g.entropy(w, without, with, j-1)) / float64(n)
			with.Release()
			without.Release()
			if v < best {
				best = v
			}
		}
	}
	if g.memo {
		g.cache.Put(key, best)
	}
	return best
}
