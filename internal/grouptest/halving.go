package grouptest

import (
	"slices"

	"setdiscovery/internal/dataset"
)

// Halving is the screening strategy: build an intersects-subset whose
// covered half is as close to n/2 as a greedy accumulation can get, so each
// answer discards about half the candidates and a single target among n
// falls out in ~⌈log₂ n⌉ rounds.
//
// Construction: with target ⌊n/2⌋, repeatedly commit the entity with the
// largest coverage gain that does not overshoot the target (ties to the
// smallest entity ID), until the target is hit or no entity fits. The
// result is compared against the single most-even entity and the more even
// of the two is asked — so halving is never worse than the best entity
// question on the same candidates.
type Halving struct{ baseScratch }

// Name implements Strategy.
func (Halving) Name() string { return "halving" }

// New implements Factory.
func (s Halving) New() Strategy { return Halving{baseScratch{dataset.NewScratch()}} }

// SelectSubset implements Strategy. The emitted subset always splits the
// sub-collection properly: the greedy coverage is capped at ⌊n/2⌋ < n and
// only returned when non-empty, and the single-entity fallback is
// informative by construction.
func (s Halving) SelectSubset(sub *dataset.Subset, excluded map[dataset.Entity]bool) (QuestionSubset, bool) {
	pool := s.poolOf(sub, excluded)
	if len(pool) == 0 {
		return QuestionSubset{}, false
	}
	n := sub.Size()

	// Baseline: the most even single entity (ties to smallest ID).
	bestE, bestU := pool[0].Entity, abs(2*pool[0].Count-n)
	for _, ec := range pool[1:] {
		if u := abs(2*ec.Count - n); u < bestU {
			bestE, bestU = ec.Entity, u
		}
	}

	target := n / 2
	cv := sub.NewGroupCoverage(s.sc)
	var picked []dataset.Entity
	for cv.Covered() < target {
		found := false
		var be dataset.Entity
		bg := 0
		for _, ec := range pool {
			g := cv.Gain(ec.Entity)
			if g == 0 || cv.Covered()+g > target {
				continue
			}
			if !found || g > bg || (g == bg && ec.Entity < be) {
				be, bg, found = ec.Entity, g, true
			}
		}
		if !found {
			break
		}
		cv.Add(be)
		picked = append(picked, be)
	}
	covered := cv.Covered()
	cv.Release()

	if len(picked) > 0 && abs(2*covered-n) < bestU {
		slices.Sort(picked)
		return QuestionSubset{Members: picked, Semantics: Intersects}, true
	}
	return QuestionSubset{Members: []dataset.Entity{bestE}, Semantics: Intersects}, true
}
