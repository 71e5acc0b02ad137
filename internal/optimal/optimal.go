// Package optimal computes exact optimal decision trees by exhaustive
// dynamic programming over sub-collections. The problem is NP-complete
// (Hyafil & Rivest; §4.2), so this is exponential and meant for small
// instances: it is the ground truth against which the paper's claim
// "k-LP finds an optimal tree when k is at least the optimal height"
// is verified, and a reference for the quality experiments.
package optimal

import (
	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
)

// Strategy is a strategy.Strategy that selects, at every node, an entity on
// an optimal decision tree for the sub-collection under the configured
// metric. Building a tree with it (tree.Build) yields an optimal tree.
//
// The DP memo is a concurrency-safe cache keyed by XORFingerprint, which
// names the global member sets whether sub is a global subset or a subset
// of a view (tree.Build selects on its view), so one memo serves both. The
// value carries no other mutable state, so a Strategy doubles as its own
// strategy.Factory: the workers of a parallel build share the instance and
// its memo.
type Strategy struct {
	metric cost.Metric
	memo   *cache.Cache[cost.Value]
}

// New returns an optimal-tree strategy for metric m.
func New(m cost.Metric) *Strategy {
	return &Strategy{metric: m, memo: cache.New[cost.Value](0)}
}

// Name implements strategy.Strategy.
func (s *Strategy) Name() string { return "optimal(" + s.metric.String() + ")" }

// New implements strategy.Factory: optimal costs are exact, so every worker
// can share the receiver and its memo directly.
func (s *Strategy) New() strategy.Strategy { return s }

// Select implements strategy.Strategy: it returns an entity minimising the
// combined optimal costs of the two induced sub-collections.
func (s *Strategy) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	if sub.Size() <= 1 {
		return 0, false
	}
	e, _ := s.best(sub)
	return e, true
}

// Cost returns the optimal scaled cost of a decision tree for sub under the
// strategy's metric (sum of depths for AD, height for H).
func (s *Strategy) Cost(sub *dataset.Subset) cost.Value {
	n := sub.Size()
	if n <= 1 {
		return 0
	}
	fp := sub.XORFingerprint()
	key := cache.Key{Hi: fp.Hi, Lo: fp.Lo}
	if v, ok := s.memo.Get(key); ok {
		return v
	}
	_, v := s.best(sub)
	s.memo.Put(key, v)
	return v
}

// best evaluates every distinct partition of sub and returns an argmin
// entity, numbered in sub's collection, with the optimal scaled cost.
// Entities inducing the same partition are deduplicated by the with-branch
// XOR key, which is sound: the cost depends only on the induced partition.
func (s *Strategy) best(sub *dataset.Subset) (dataset.Entity, cost.Value) {
	infos := sub.InformativeEntities()
	var (
		bestEnt dataset.Entity
		bestVal cost.Value = cost.Inf
		seen               = make(map[dataset.Fingerprint]bool)
	)
	for _, ec := range infos {
		with, without := sub.Partition(ec.Entity)
		pk := with.XORFingerprint()
		if seen[pk] {
			continue
		}
		seen[pk] = true
		v := cost.Combine(s.metric, with.Size(), s.Cost(with), without.Size(), s.Cost(without))
		if v < bestVal {
			bestEnt, bestVal = ec.Entity, v
		}
	}
	if bestVal == cost.Inf {
		// Unreachable for collections of unique sets; fail loudly if the
		// invariant is ever violated upstream.
		panic("optimal: no informative entity for a multi-set sub-collection")
	}
	return bestEnt, bestVal
}
