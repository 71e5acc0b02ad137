package strategy

import (
	"fmt"
	"sync"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

// KLP implements Algorithm 1, K-Lookahead with Pruning, and its two
// restricted variants:
//
//   - k-LP (§4.4.1): every informative entity is a candidate at every step.
//   - k-LPLE (§4.4.2): only the q best-ranked entities are candidates at
//     every step of the lower-bound calculation (a beam).
//   - k-LPLVE (§4.4.3): q candidates at the node's own selection, a single
//     candidate inside recursive lower-bound steps.
//
// A KLP value carries Algorithm 1's memoisation cache keyed by the
// sub-collection fingerprint plus (k, effective beam width). The cache is
// concurrency-safe and shared by every sibling minted through New, so
// lookahead work at a parent node is shared with its children, across the
// workers of a parallel tree build, and across concurrent discovery
// sessions over the same collection. The KLP instance itself carries
// per-call scratch state (exclusions, instrumentation) and is a
// single-worker object: share the factory, not the instance.
type KLP struct {
	metric   cost.Metric
	k        int
	q        int  // 0 = unlimited (k-LP); >0 = beam width
	variable bool // true = k-LPLVE (q only at depth 0)

	noSortPrune bool // ablation: disable the sorted early-stop (lines 14–15)
	noULPrune   bool // ablation: disable recursive upper limits (lines 22, 29)
	noScratch   bool // ablation: disable scratch/pool reuse on minted siblings

	cache    *cache.Cache[cacheEntry]
	recorder *Recorder
	excluded map[dataset.Entity]bool // active only during SelectExcluding

	// scratch is the per-instance reusable working memory (count arrays,
	// candidate buffers, bitset pool) making steady-state Select
	// allocation-free. It is live on siblings minted by New; a KLP value
	// used directly as a Strategy runs the allocating fallback paths.
	scratch workerScratch
}

type cacheEntry struct {
	entity dataset.Entity
	val    cost.Value
	found  bool
}

// NewKLP returns a k-LP strategy under metric m looking k steps ahead.
// k must be ≥ 1.
func NewKLP(m cost.Metric, k int) *KLP {
	if k < 1 {
		panic("strategy: k-LP requires k >= 1")
	}
	return &KLP{metric: m, k: k, cache: cache.New[cacheEntry]()}
}

// New implements Factory: it returns a sibling strategy for the exclusive
// use of one goroutine, sharing the receiver's lookahead cache, recorder and
// configuration. Cached bounds are exact or certified regardless of which
// sibling computed them, so sharing never changes selections — it only
// skips work (see the determinism argument on tree.Build). Each sibling
// carries its own scratch arena, so steady-state selection is
// allocation-free without any synchronisation between siblings.
func (s *KLP) New() Strategy {
	sibling := *s
	sibling.excluded = nil
	sibling.scratch = workerScratch{}
	if !s.noScratch {
		sibling.scratch = workerScratch{sc: dataset.NewScratch()}
	}
	return &sibling
}

// NewKLPLE returns a k-LPLE strategy: k steps ahead with at most q candidate
// entities per step. q must be ≥ 1.
func NewKLPLE(m cost.Metric, k, q int) *KLP {
	s := NewKLP(m, k)
	if q < 1 {
		panic("strategy: k-LPLE requires q >= 1")
	}
	s.q = q
	return s
}

// NewKLPLVE returns a k-LPLVE strategy: q candidates at the top-level call,
// a single candidate in every recursive step.
func NewKLPLVE(m cost.Metric, k, q int) *KLP {
	s := NewKLPLE(m, k, q)
	s.variable = true
	return s
}

// Name implements Strategy.
func (s *KLP) Name() string {
	switch {
	case s.q == 0:
		return fmt.Sprintf("k-LP(k=%d,%v)", s.k, s.metric)
	case s.variable:
		return fmt.Sprintf("k-LPLVE(k=%d,q=%d,%v)", s.k, s.q, s.metric)
	default:
		return fmt.Sprintf("k-LPLE(k=%d,q=%d,%v)", s.k, s.q, s.metric)
	}
}

// Metric returns the cost metric the strategy optimises.
func (s *KLP) Metric() cost.Metric { return s.metric }

// K returns the lookahead depth.
func (s *KLP) K() int { return s.k }

// DisableSortPrune turns off the sorted early-stop (ablation; returns the
// receiver for chaining). The strategy still selects identical entities.
func (s *KLP) DisableSortPrune() *KLP { s.noSortPrune = true; return s }

// DisableULPrune turns off the recursive upper-limit pruning (ablation).
func (s *KLP) DisableULPrune() *KLP { s.noULPrune = true; return s }

// DisableScratch turns off the per-sibling scratch arenas and bitset pool
// (ablation and reference path): siblings minted by New then run the
// original allocating hot path. Selections are identical either way — the
// pooled-vs-unpooled equivalence tests pin this.
func (s *KLP) DisableScratch() *KLP {
	s.noScratch = true
	s.scratch = workerScratch{}
	return s
}

// SetCacheBound replaces the shared lookahead cache with a bounded one
// holding at most (approximately) n entries under clock eviction, so
// long-running processes can serve this factory's lineage indefinitely.
// Call it on the factory before minting siblings: instances minted earlier
// keep the previous cache. Evicted bounds are recomputed, never wrong, so
// selections are unchanged.
func (s *KLP) SetCacheBound(n int) {
	s.cache = cache.NewBounded[cacheEntry](n)
}

// Instrument attaches a Recorder that collects per-node pruning statistics
// (used to regenerate Table 4 and the §5.3.3 root-pruning rates). Siblings
// minted by New after the call share the recorder.
func (s *KLP) Instrument(r *Recorder) *KLP { s.recorder = r; return s }

// ResetCache discards memoised lookahead results — for the receiver and for
// every sibling sharing its cache. Call between unrelated collections;
// within one collection the cache only ever helps.
func (s *KLP) ResetCache() { s.cache.Reset() }

// CacheStats reports hit/miss/entry counts of the shared lookahead cache,
// for benchmarks and capacity planning.
func (s *KLP) CacheStats() cache.Stats { return s.cache.Stats() }

// Select implements Strategy: it returns the entity with the minimum k-step
// scaled lower bound for sub (ties: most even, then smallest entity ID, via
// the candidate sort order).
func (s *KLP) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	if sub.Size() <= 1 {
		return 0, false
	}
	e, _, found := s.search(sub, s.k, cost.Inf, 0)
	return e, found
}

// LowerBound returns LBk(C) of eq 8 — the minimum k-step scaled lower bound
// over all entities — alongside the selected entity. Exposed for tests and
// the monotonicity experiments.
func (s *KLP) LowerBound(sub *dataset.Subset) (dataset.Entity, cost.Value, bool) {
	if sub.Size() <= 1 {
		return 0, 0, sub.Size() == 1
	}
	return s.search(sub, s.k, cost.Inf, 0)
}

// effectiveQ returns the beam width for a call at the given recursion depth:
// 0 means unlimited.
func (s *KLP) effectiveQ(depth int) int {
	if s.q == 0 {
		return 0
	}
	if s.variable && depth > 0 {
		return 1
	}
	return s.q
}

// cacheKey builds the memo key for (sub, k, qEff): the sub-collection's
// 128-bit fingerprint plus the remaining depth and effective beam width
// packed into the auxiliary word. The metric needs no slot — each factory
// lineage owns a metric-specific cache.
func (s *KLP) cacheKey(sub *dataset.Subset, k, qEff int) cache.Key {
	fp := sub.Fingerprint()
	return cache.Key{Hi: fp.Hi, Lo: fp.Lo, Aux: uint64(k)<<32 | uint64(uint32(qEff))}
}

// search is Algorithm 1. It returns the entity of sub with the minimum
// k-step scaled lower bound, provided that bound is strictly below ul;
// otherwise found is false and val is a certified lower bound on every
// entity's k-step bound (≥ ul when pruned, the exact minimum otherwise).
// sub must have ≥ 2 member sets.
func (s *KLP) search(sub *dataset.Subset, k int, ul cost.Value, depth int) (ent dataset.Entity, val cost.Value, found bool) {
	// Exclusions (SelectExcluding) constrain only the entity proposed at the
	// node itself, so they bypass the node-level cache.
	excluding := depth == 0 && len(s.excluded) > 0
	var key cache.Key
	if !excluding {
		qEff := s.effectiveQ(depth)
		key = s.cacheKey(sub, k, qEff)
		if ce, ok := s.cache.Get(key); ok {
			// Lines 1–6: a cached value decides the call unless it records a
			// pruned search whose limit was weaker than ul.
			if ul <= ce.val {
				return 0, ce.val, false
			}
			if ce.found {
				return ce.entity, ce.val, true
			}
		}
	}

	n := sub.Size()
	cands := s.scratch.candidatesAt(depth, sub, s.metric)
	sortByLB1(cands)
	if excluding {
		kept := cands[:0]
		for _, cand := range cands {
			if !s.excluded[cand.entity] {
				kept = append(kept, cand)
			}
		}
		cands = kept
		if len(cands) == 0 {
			return 0, ul, false
		}
	}
	if qEff := s.effectiveQ(depth); qEff > 0 && len(cands) > qEff {
		cands = cands[:qEff]
	}

	// Lines 7–10: at one step of lookahead the answer is the minimum LB1,
	// which after sorting is the first candidate. (See DESIGN.md: we take
	// the true minimum-LB1 entity rather than the most-even one so the
	// cached value remains a genuine lower bound under AD's ceilings.)
	if k <= 1 {
		best := cands[0]
		if !excluding {
			s.cache.Put(key, cacheEntry{best.entity, best.lb1, true})
		}
		if best.lb1 >= ul {
			return 0, best.lb1, false
		}
		return best.entity, best.lb1, true
	}

	var ns NodeStats
	ns.Candidates = len(cands)
	for i, cand := range cands {
		// Lines 14–15: sorted early-stop. Every later candidate has an
		// LB1 — a lower bound on its LBk (Lemma 4.2) — at or above ul, so
		// none can beat the incumbent (Lemma 4.4 with l=1).
		if !s.noSortPrune && cand.lb1 >= ul {
			ns.PrunedSort += len(cands) - i
			break
		}
		with, without := s.scratch.partition(sub, cand.entity)
		l, aborted := s.childBounds(with, without, k, ul, depth, n)
		// The children are pure lookahead state: hand their (pooled)
		// bitsets back before moving to the next candidate.
		with.Release()
		without.Release()
		if aborted {
			// Lines 24–25 / 31–32: a child alone already puts this entity
			// at or above ul.
			ns.AbortedUL++
			continue
		}
		ns.Evaluated++
		if l < ul {
			ul = l
			ent = cand.entity
			found = true
		}
	}

	if !excluding {
		s.cache.Put(key, cacheEntry{ent, ul, found})
	}
	if depth == 0 && s.recorder != nil {
		s.recorder.record(ns)
	}
	return ent, ul, found
}

// childBounds runs lines 16–33 of Algorithm 1 for one candidate split: the
// (k−1)-step bounds of both children under the derived upper limits, lifted
// by cost.Combine. aborted reports that a child's recursive search was cut
// by its upper limit (the candidate cannot beat the incumbent).
func (s *KLP) childBounds(with, without *dataset.Subset, k int, ul cost.Value, depth, n int) (l cost.Value, aborted bool) {
	n1, n2 := with.Size(), without.Size()

	var l1 cost.Value
	if n1 == 1 {
		l1 = 0
	} else {
		ul1 := cost.Inf
		if !s.noULPrune {
			ul1 = cost.ULFirst(s.metric, ul, n, n2)
		}
		_, v, ok := s.search(with, k-1, ul1, depth+1)
		if !ok {
			return 0, true
		}
		l1 = v
	}

	var l2 cost.Value
	if n2 == 1 {
		l2 = 0
	} else {
		ul2 := cost.Inf
		if !s.noULPrune {
			ul2 = cost.ULSecond(s.metric, ul, n, l1)
		}
		_, v, ok := s.search(without, k-1, ul2, depth+1)
		if !ok {
			return 0, true
		}
		l2 = v
	}

	// Line 33: lift the children's (k−1)-step bounds (eqs 6–7).
	return cost.Combine(s.metric, n1, l1, n2, l2), false
}

// NodeStats reports how much of one node's candidate-entity loop the pruning
// rules skipped.
type NodeStats struct {
	Candidates int // informative entities considered at the node
	Evaluated  int // full k-step bounds computed (loop body to line 33)
	AbortedUL  int // cut mid-calculation by an upper limit (lines 24/31)
	PrunedSort int // never started thanks to the sorted early-stop (line 15)
}

// PrunedFraction is the share of candidates whose k-step calculation was
// not completed — the quantity of Table 4.
func (ns NodeStats) PrunedFraction() float64 {
	if ns.Candidates == 0 {
		return 0
	}
	return 1 - float64(ns.Evaluated)/float64(ns.Candidates)
}

// Recorder accumulates per-node pruning statistics across the top-level
// Select calls of an instrumented KLP. Appends are mutex-guarded so sibling
// strategies of a parallel tree build may share one Recorder; read Nodes
// only after the build or selection in question has finished.
type Recorder struct {
	mu    sync.Mutex
	Nodes []NodeStats
}

// record appends one node's statistics.
func (r *Recorder) record(ns NodeStats) {
	r.mu.Lock()
	r.Nodes = append(r.Nodes, ns)
	r.mu.Unlock()
}

// Reset clears the recorded nodes.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.Nodes = r.Nodes[:0]
	r.mu.Unlock()
}

// AvgPrunedFraction returns the mean pruned fraction over recorded nodes.
func (r *Recorder) AvgPrunedFraction() float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, ns := range r.Nodes {
		sum += ns.PrunedFraction()
	}
	return sum / float64(len(r.Nodes))
}

// MinPrunedFraction returns the smallest pruned fraction over recorded
// nodes (Table 4's "Min" row).
func (r *Recorder) MinPrunedFraction() float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	minF := 1.0
	for _, ns := range r.Nodes {
		if f := ns.PrunedFraction(); f < minF {
			minF = f
		}
	}
	return minF
}
