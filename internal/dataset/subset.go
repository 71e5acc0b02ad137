package dataset

import (
	"fmt"
	"slices"

	"setdiscovery/internal/bitset"
)

// Subset is a sub-collection: the sets of a Collection that are still
// consistent with the answers given so far. It is the unit the entity
// selection strategies operate on.
type Subset struct {
	c       *Collection
	members *bitset.Bits // over set indexes
	size    int

	// xor is the subset's XORFingerprint when c is a view (see Project),
	// kept up to date by every constructor; zero otherwise.
	xor Fingerprint

	// sc is non-nil while the subset is pooled: its bitset came from sc's
	// pool via PartitionScratch and goes back there on Release. Unpool
	// clears it. Subsets from the allocating constructors (All, SubsetOf,
	// Partition, ...) have sc == nil.
	sc *Scratch
}

// All returns the sub-collection containing every set.
func (c *Collection) All() *Subset {
	b := bitset.NewFull(len(c.sets))
	return &Subset{c: c, members: b, size: len(c.sets), xor: c.viewKey(b)}
}

// SubsetOf returns the sub-collection with exactly the given set indexes.
func (c *Collection) SubsetOf(indexes []uint32) *Subset {
	b := bitset.FromSlice(len(c.sets), indexes)
	return &Subset{c: c, members: b, size: b.Count(), xor: c.viewKey(b)}
}

// Collection returns the parent collection.
func (s *Subset) Collection() *Collection { return s.c }

// Size returns the number of member sets.
func (s *Subset) Size() int { return s.size }

// Contains reports whether set index i is a member.
func (s *Subset) Contains(i int) bool { return s.members.Test(i) }

// Members returns the member set indexes in increasing order.
func (s *Subset) Members() []uint32 { return s.members.Slice() }

// ForEachMember calls fn with each member set in index order.
func (s *Subset) ForEachMember(fn func(*Set) bool) {
	s.members.ForEach(func(i int) bool { return fn(s.c.sets[i]) })
}

// Single returns the only member; it panics unless Size() == 1.
func (s *Subset) Single() *Set {
	if s.size != 1 {
		panic(fmt.Sprintf("dataset: Single on subset of size %d", s.size))
	}
	return s.c.sets[s.members.Next(0)]
}

// EntityCount pairs an entity with the number of member sets containing it.
type EntityCount struct {
	Entity Entity
	Count  int
}

// denseThreshold bounds the universe size for which entity counting uses a
// dense array (4 bytes and one bitmap bit per possible entity, held by the
// Scratch) instead of a map. Dense counting is several times faster on the
// experiment workloads; beyond the threshold every scratch would carry
// arrays sized to a huge universe. It is a variable only so tests can
// exercise both paths.
var denseThreshold = 1 << 21

// InformativeEntities returns, for every entity present in some but not all
// member sets, the number of member sets containing it (§3: uninformative
// entities — present in all or none — are excluded). The result is ordered
// by entity ID and owned by the caller. It counts through a throwaway
// Scratch; hot paths keep one and call InformativeEntitiesInto.
func (s *Subset) InformativeEntities() []EntityCount {
	return slices.Clone(s.InformativeEntitiesInto(NewScratch()))
}

// CountWith returns how many member sets contain e, via the posting list.
func (s *Subset) CountWith(e Entity) int {
	n := 0
	for _, idx := range s.c.Postings(e) {
		if s.members.Test(int(idx)) {
			n++
		}
	}
	return n
}

// Partition splits the sub-collection by entity e into (with, without):
// members containing e and members not containing it. Cost is
// O(|postings(e)| + words(members)). It is the allocating definition of a
// split, for callers outside the selection path (tree validation, the
// exhaustive optimum, tests); selection splits through PartitionScratch.
func (s *Subset) Partition(e Entity) (with, without *Subset) {
	in, out := bitset.New(len(s.c.sets)), bitset.New(len(s.c.sets))
	withN, withKey := s.split(e, in, out)
	return &Subset{c: s.c, members: in, size: withN, xor: withKey},
		&Subset{c: s.c, members: out, size: s.size - withN, xor: s.xor.xor(withKey)}
}

// split sets in to the members containing e and out to the others, both
// empty bitsets over the collection's sets, and returns how many members
// contain e and their XOR key (zero unless the collection is a view).
func (s *Subset) split(e Entity, in, out *bitset.Bits) (withN int, withKey Fingerprint) {
	var keys []Fingerprint
	if p := s.c.view; p != nil {
		keys = p.keys
	}
	for _, idx := range s.c.Postings(e) {
		if s.members.Test(int(idx)) {
			in.Set(int(idx))
			withN++
			if keys != nil {
				withKey = withKey.xor(keys[idx])
			}
		}
	}
	s.members.AndNotInto(in, out)
	return withN, withKey
}

// Without returns a copy of the sub-collection with set index i removed.
func (s *Subset) Without(i int) *Subset {
	if !s.members.Test(i) {
		return s
	}
	m := s.members.Clone()
	m.Clear(i)
	return &Subset{c: s.c, members: m, size: s.size - 1, xor: s.c.viewKey(m)}
}

// Names returns the member set names in index order (for small outputs).
func (s *Subset) Names() []string {
	out := make([]string, 0, s.size)
	s.ForEachMember(func(set *Set) bool {
		out = append(out, set.Name)
		return true
	})
	return out
}
