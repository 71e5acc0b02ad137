package strategy

import (
	"fmt"
	"math"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/dataset"
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
	k         int
	memo      bool
	noScratch bool
	cache     *cache.Cache[float64] // nil unless memo; shared across siblings
	// Evaluations counts entity evaluations across all recursion levels —
	// a machine-independent work measure used alongside wall time. It is
	// per-instance: siblings minted by New count their own work.
	Evaluations int64
	excluded    map[dataset.Entity]bool // active only during SelectExcluding

	// scratch is live on siblings minted by New (see KLP.New): count
	// arrays, candidate buffers and partition bitsets are reused across
	// the whole lookahead, allocation-free in steady state.
	scratch workerScratch
}

// NewGainK returns an unmemoised gain-k strategy. k must be ≥ 1.
func NewGainK(k int) *GainK {
	if k < 1 {
		panic("strategy: gain-k requires k >= 1")
	}
	return &GainK{k: k}
}

// NewGainKMemo returns a memoised gain-k (ablation).
func NewGainKMemo(k int) *GainK {
	g := NewGainK(k)
	g.memo = true
	g.cache = cache.New[float64]()
	return g
}

// New implements Factory: the sibling shares the entropy memo cache (when
// memoised) but counts its own evaluations and owns a private scratch
// arena. Cached entropies are exact, so sharing cannot change selections.
func (g *GainK) New() Strategy {
	sibling := *g
	sibling.Evaluations = 0
	sibling.excluded = nil
	sibling.scratch = workerScratch{}
	if !g.noScratch {
		sibling.scratch = workerScratch{sc: dataset.NewScratch()}
	}
	return &sibling
}

// DisableScratch turns off scratch/pool reuse on minted siblings
// (ablation and reference path; selections are identical either way).
func (g *GainK) DisableScratch() *GainK {
	g.noScratch = true
	g.scratch = workerScratch{}
	return g
}

// SetCacheBound replaces the memo cache (when memoised) with a bounded one
// holding at most (approximately) n entries under clock eviction. Call on
// the factory before minting siblings. A no-op for the unmemoised variant.
func (g *GainK) SetCacheBound(n int) {
	if g.cache != nil {
		g.cache = cache.NewBounded[float64](n)
	}
}

// Name implements Strategy.
func (g *GainK) Name() string {
	if g.memo {
		return fmt.Sprintf("gain-%d(memo)", g.k)
	}
	return fmt.Sprintf("gain-%d", g.k)
}

// Select implements Strategy.
func (g *GainK) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	if sub.Size() <= 1 {
		return 0, false
	}
	cands := g.scratch.candidatesAt(0, sub, 0)
	if len(cands) == 0 {
		return 0, false
	}
	sortByLB1(cands) // deterministic tie order: even splits first
	n := float64(sub.Size())
	var best dataset.Entity
	bestVal := math.Inf(1)
	for _, cand := range cands {
		if g.excluded[cand.entity] {
			continue
		}
		g.Evaluations++
		with, without := g.scratch.partition(sub, cand.entity)
		v := (float64(with.Size())*g.entropy(with, g.k-1) +
			float64(without.Size())*g.entropy(without, g.k-1)) / n
		with.Release()
		without.Release()
		if v < bestVal {
			best, bestVal = cand.entity, v
		}
	}
	return best, !math.IsInf(bestVal, 1)
}

// entropy computes ent_j as defined above.
func (g *GainK) entropy(sub *dataset.Subset, j int) float64 {
	n := sub.Size()
	if n <= 1 {
		return 0
	}
	if j == 0 {
		return math.Log2(float64(n))
	}
	var key cache.Key
	if g.memo {
		fp := sub.Fingerprint()
		key = cache.Key{Hi: fp.Hi, Lo: fp.Lo, Aux: uint64(j)}
		if v, ok := g.cache.Get(key); ok {
			return v
		}
	}
	// Depth-indexed candidate buffer: the top-level Select owns depth 0,
	// the ent_j recursion level owns depth k−j.
	cands := g.scratch.candidatesAt(g.k-j, sub, 0)
	best := math.Inf(1)
	if j == 1 {
		// ent_1 needs only the split sizes, which the candidate counts
		// already carry — no partitioning.
		for _, cand := range cands {
			g.Evaluations++
			n1 := cand.with
			v := (xlog2(n1) + xlog2(n-n1)) / float64(n)
			if v < best {
				best = v
			}
		}
	} else {
		for _, cand := range cands {
			g.Evaluations++
			with, without := g.scratch.partition(sub, cand.entity)
			v := (float64(with.Size())*g.entropy(with, j-1) +
				float64(without.Size())*g.entropy(without, j-1)) / float64(n)
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
