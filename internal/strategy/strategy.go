// Package strategy implements the entity-selection strategies of §4: the
// paper's k-step lookahead algorithms with pruning (k-LP, k-LPLE, k-LPLVE,
// Algorithm 1) and the baselines they are compared against (most-even
// partitioning, information gain, indistinguishable pairs, and the unpruned
// gain-k lookahead of Esmeir & Markovitch).
//
// A Strategy picks, for a sub-collection of candidate sets, the entity whose
// membership question should be asked next. Tree construction (Algorithm 3)
// and interactive discovery (Algorithm 2) are layered on top in the tree and
// discovery packages.
package strategy

import (
	"fmt"
	"strings"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

// Strategy selects the entity for the next membership question. Select
// returns false when the sub-collection has no informative entity (size ≤ 1,
// or every entity is present in all or none of the member sets — impossible
// for >1 unique sets).
//
// sub may be a subset of a compact view (dataset.Subset.Project): tree.Build
// selects every node on the view it projects its sub-collection onto. The
// entity returned is numbered in sub.Collection(), which for a view is the
// view's local numbering; the caller maps it back (Subset.GlobalEntity).
//
// A Strategy instance is a single-worker object: it may carry per-call
// state (exclusion sets, instrumentation) and must not be shared by
// concurrent goroutines. Concurrent workers each obtain their own instance
// from a Factory; instances minted by one factory share the concurrency-safe
// memoisation caches, so lookahead work done by one worker or session is
// visible to all of its siblings.
type Strategy interface {
	Name() string
	Select(sub *dataset.Subset) (dataset.Entity, bool)
}

// Factory mints per-worker Strategy instances. Factories are safe for
// concurrent use: tree construction calls New once per forked branch, and
// every concurrent discovery session over a shared collection draws its own
// instance. All instances from one factory share the factory's fingerprint
// caches (Algorithm 1's Cache), which are concurrency-safe.
//
// Every concrete strategy in this package implements both Strategy and
// Factory: New returns a fresh instance that copies the receiver's
// configuration — for the lookahead strategies a sibling sharing the
// receiver's cache — and owns no working memory. Each selection borrows its
// scratch for the call, from the factory lineage's free list (the
// lookahead strategies) or a process-wide one (the baselines), so New
// allocates at most the instance. A concrete value can therefore be used
// directly where a Factory is expected.
type Factory interface {
	Name() string
	// New returns a Strategy for the exclusive use of one goroutine.
	New() Strategy
}

// candidate is an informative entity with its split statistics.
type candidate struct {
	entity dataset.Entity
	lb1    cost.Value // 1-step scaled lower bound (eqs 3–4)
	uneven int        // |‖C1|−|C2‖ = |2·with − n|; 0 is perfectly even
}

// cmpLB1 is the candidate order of Algorithm 1 line 11: 1-step bound, then
// evenness, then entity ID. LB1 is the primary key, not evenness, so that
// the value a one-step search caches is the true minimum LB1, which stays
// a lower bound under AD's ceilings where the most even split's may not.
// Entity IDs are unique, so the order is total.
func cmpLB1(a, b candidate) int {
	if a.lb1 != b.lb1 {
		if a.lb1 < b.lb1 {
			return -1
		}
		return 1
	}
	if a.uneven != b.uneven {
		return a.uneven - b.uneven
	}
	if a.entity < b.entity {
		return -1
	}
	if a.entity > b.entity {
		return 1
	}
	return 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// New builds a strategy factory by name. Recognised names (case-insensitive):
//
//	most-even            greedy most-even partitioning (§4.2.1)
//	infogain             information gain (§4.2.2, eq 9)
//	indg                 indistinguishable pairs (§4.2.3, eq 10)
//	lb1                  1-step cost lower bound (§4.2.4; ≡ klp with k=1)
//	klp                  k-LP (Algorithm 1) with the given k
//	klple                k-LPLE with the given k and q
//	klplve               k-LPLVE with the given k and q
//	gaink                unpruned gain-k lookahead (Esmeir & Markovitch)
//	gaink-memo           gain-k with memoisation (ablation)
//
// m is the cost metric for the lookahead strategies; k and q are ignored by
// strategies that do not use them.
func New(name string, m cost.Metric, k, q int) (Factory, error) {
	switch strings.ToLower(name) {
	case "most-even", "mosteven":
		return MostEven{}, nil
	case "infogain", "info-gain":
		return InfoGain{}, nil
	case "indg":
		return Indg{}, nil
	case "lb1":
		return NewKLP(m, 1), nil
	case "klp", "k-lp":
		return NewKLP(m, k), nil
	case "klple", "k-lple":
		return NewKLPLE(m, k, q), nil
	case "klplve", "k-lplve":
		return NewKLPLVE(m, k, q), nil
	case "gaink", "gain-k":
		return NewGainK(k), nil
	case "gaink-memo", "gain-k-memo":
		return NewGainKMemo(k), nil
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q", name)
	}
}
