// Package grouptest implements set-valued (group-testing) question
// selection for interactive discovery. Where the paper's interaction model
// asks about one entity per question, a group-testing session asks about a
// *subset* of entities and halves the candidate space per answer — the
// interaction shape of software bisection, contaminated-pool screening and
// feature-flag fault isolation.
//
// A question subset carries one of two semantics:
//
//   - Intersects — "does your set share at least one entity with S?"
//   - SubsetOfTarget — "is S contained in your set?"
//
// Strategies are immutable values: selection is a pure function of the
// candidate sub-collection and the excluded entities, so one value serves
// any number of sessions at once, and group sessions snapshot no strategy
// state — restored sessions re-derive the same question from the same
// candidates. A strategy owns no working memory: each SelectSubset counts
// and covers in a scratch it borrows for the call (dataset.BorrowScratch).
package grouptest

import (
	"fmt"
	"strings"

	"setdiscovery/internal/dataset"
)

// Semantics says how a question subset relates to the user's hidden set.
type Semantics uint8

const (
	// Intersects asks "does your set share at least one entity with S?".
	// The yes half of the partition is every candidate overlapping S.
	Intersects Semantics = iota
	// SubsetOfTarget asks "is S contained in your set?". The yes half is
	// every candidate containing all of S.
	SubsetOfTarget
)

// String renders the semantics as its wire name.
func (s Semantics) String() string {
	switch s {
	case Intersects:
		return "intersects"
	case SubsetOfTarget:
		return "subset-of"
	default:
		return fmt.Sprintf("Semantics(%d)", uint8(s))
	}
}

// ParseSemantics is the inverse of String.
func ParseSemantics(s string) (Semantics, error) {
	switch strings.ToLower(s) {
	case "intersects":
		return Intersects, nil
	case "subset-of", "subsetof", "subset-of-target":
		return SubsetOfTarget, nil
	default:
		return 0, fmt.Errorf("grouptest: unknown semantics %q", s)
	}
}

// QuestionSubset is one set-valued question: the entities asked about,
// sorted ascending and deduplicated, plus the semantics to judge them under.
type QuestionSubset struct {
	Members   []dataset.Entity
	Semantics Semantics
}

// Strategy selects the next set-valued question. SelectSubset returns false
// when no informative non-excluded entity remains (size ≤ 1, or every
// remaining split would be vacuous).
//
// SelectSubset must be a pure function of (sub, excluded): session snapshots
// carry no strategy state, so a restored session must re-derive exactly the
// question its undisturbed twin would ask. Every emitted subset must split
// the sub-collection properly (both halves non-empty) — an answer that
// leaves the candidates unchanged would re-ask the same question forever.
//
// Every strategy in this package is an immutable value, safe for
// concurrent use.
type Strategy interface {
	Name() string
	SelectSubset(sub *dataset.Subset, excluded map[dataset.Entity]bool) (QuestionSubset, bool)
}

// Constraint is a dependency "If implies Then": any set containing If also
// contains Then (enabling a module enables what it depends on). The
// additive strategy keeps its probes closed under these so that the implied
// enabled set is always one a user could actually realise; the halving
// strategy ignores them.
type Constraint struct {
	If, Then dataset.Entity
}

// New builds a group-testing strategy by name. Recognised names
// (case-insensitive):
//
//	halving     greedy even-split subsets, ~⌈log₂ n⌉ rounds to one target
//	additive    bisect-style multi-culprit search honouring constraints
//
// constraints are honoured by additive and ignored by halving.
func New(name string, constraints []Constraint) (Strategy, error) {
	switch strings.ToLower(name) {
	case "halving":
		return Halving{}, nil
	case "additive":
		return Additive{constraints: append([]Constraint(nil), constraints...)}, nil
	default:
		return nil, fmt.Errorf("grouptest: unknown group strategy %q", name)
	}
}

// poolOf copies the non-excluded informative entities of sub, counted
// through sc, in entity-ID order. The copy is what lets strategies
// interleave further scratch use (coverage bitsets) with the pool.
func poolOf(sub *dataset.Subset, excluded map[dataset.Entity]bool, sc *dataset.Scratch) []dataset.EntityCount {
	infos := sub.InformativeEntitiesInto(sc)
	pool := make([]dataset.EntityCount, 0, len(infos))
	for _, ec := range infos {
		if excluded != nil && excluded[ec.Entity] {
			continue
		}
		pool = append(pool, ec)
	}
	return pool
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
