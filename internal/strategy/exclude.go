package strategy

import (
	"setdiscovery/internal/dataset"
)

// Excluder is implemented by strategies that can avoid proposing specific
// entities. Interactive discovery uses it for §6's "don't know" answers:
// the same sub-collection is re-queried with the unsure entities excluded.
// As with Select, sub may be a subset of a view: the excluded entities and
// the entity returned are numbered in sub.Collection().
type Excluder interface {
	Strategy
	// SelectExcluding behaves like Select but never returns an entity in
	// excluded. It reports false when every informative entity is excluded.
	SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool)
}

// SelectExcluding implements Excluder for KLP. Exclusion applies only to the
// entity proposed at the node itself; lookahead below the node may still
// reason with excluded entities (their bounds stay valid — only the next
// *question* is constrained). The node-level memo cache is bypassed while
// exclusions are active because cached selections ignore them.
func (s *KLP) SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	if sub.Size() <= 1 {
		return 0, false
	}
	if len(excluded) == 0 {
		return s.Select(sub)
	}
	s.excluded = excluded
	defer func() { s.excluded = nil }()
	e, _, found := s.searchRoot(sub)
	return e, found
}

// SelectExcluding implements Excluder for GainK.
func (g *GainK) SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	if sub.Size() <= 1 {
		return 0, false
	}
	saved := g.excluded
	g.excluded = excluded
	defer func() { g.excluded = saved }()
	return g.Select(sub)
}
