package grouptest

import (
	"slices"

	"setdiscovery/internal/dataset"
)

// Additive is the bisect-style multi-culprit strategy. It mirrors the
// iterative additive shape of build-bisection tools: a confirmed base of
// entities present in every remaining candidate (already outside the
// informative pool), plus a binary search over the undetermined pool.
//
// Each round splits the pool in half and asks, with Intersects semantics,
// about the *disabled* half C — "does your set still reach outside the
// enabled test set?". A yes keeps only candidates overlapping C, a no keeps
// only candidates inside the enabled set; either way the candidates shrink
// and with k>1 culprits the search re-halves what is left, discovering them
// one binary search after another.
//
// Dependency constraints "If implies Then" are honoured by keeping the
// enabled test set closed: whenever Then is disabled (in C) while If is
// still undetermined, If is disabled too, so the implied enabled set is one
// a user could actually run. When the closed probe degenerates (every
// candidate intersects it — no information), the strategy falls back to
// confirming a single pool entity with SubsetOfTarget semantics, which
// always splits properly because the entity is informative.
type Additive struct {
	constraints []Constraint
}

// Name implements Strategy.
func (Additive) Name() string { return "additive" }

// SelectSubset implements Strategy.
func (s Additive) SelectSubset(sub *dataset.Subset, excluded map[dataset.Entity]bool) (QuestionSubset, bool) {
	sc := dataset.BorrowScratch()
	pool := poolOf(sub, excluded, sc)
	if len(pool) == 0 {
		dataset.ReturnScratch(sc)
		return QuestionSubset{}, false
	}
	n := sub.Size()

	// Disabled half C: the upper half of the pool by entity ID, closed so
	// that disabling a dependency disables its dependents — if Then ∈ C and
	// If is still in the pool, If joins C (contrapositive of keeping the
	// enabled set closed under If→Then).
	half := (len(pool) + 1) / 2
	inC := make(map[dataset.Entity]bool, len(pool)-half)
	for _, ec := range pool[half:] {
		inC[ec.Entity] = true
	}
	inPool := make(map[dataset.Entity]bool, len(pool))
	for _, ec := range pool {
		inPool[ec.Entity] = true
	}
	for changed := true; changed; {
		changed = false
		for _, c := range s.constraints {
			if inC[c.Then] && inPool[c.If] && !inC[c.If] {
				inC[c.If] = true
				changed = true
			}
		}
	}

	var members []dataset.Entity
	yes := 0
	if len(inC) > 0 {
		members = make([]dataset.Entity, 0, len(inC))
		for e := range inC {
			members = append(members, e)
		}
		slices.Sort(members)
		// Progress guard: closure can inflate C until every candidate
		// intersects it, which would pin the session on one question.
		cv := sub.NewGroupCoverage(sc)
		for _, e := range members {
			cv.Add(e)
		}
		yes = cv.Covered()
		cv.Release()
	}
	dataset.ReturnScratch(sc)
	if yes > 0 && yes < n {
		return QuestionSubset{Members: members, Semantics: Intersects}, true
	}

	// Confirm one culprit directly. pool[0] is informative, so the split is
	// proper regardless of what closure did above.
	return QuestionSubset{
		Members:   []dataset.Entity{pool[0].Entity},
		Semantics: SubsetOfTarget,
	}, true
}
