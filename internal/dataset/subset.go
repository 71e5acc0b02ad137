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

	// sc is non-nil while the subset is pooled: its bitset came from sc's
	// pool via PartitionScratch and goes back there on Release. Unpool
	// clears it. Subsets from the allocating constructors have sc == nil.
	sc *Scratch
}

// All returns the sub-collection containing every set.
func (c *Collection) All() *Subset {
	return &Subset{c: c, members: bitset.NewFull(len(c.sets)), size: len(c.sets)}
}

// SubsetOf returns the sub-collection with exactly the given set indexes.
func (c *Collection) SubsetOf(indexes []uint32) *Subset {
	b := bitset.FromSlice(len(c.sets), indexes)
	return &Subset{c: c, members: b, size: b.Count()}
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

// Key appends a canonical exact encoding of the member indexes to dst;
// equal subsets of the same collection get equal keys, with no collisions
// ever. The selection caches key on the cheaper Fingerprint instead; Key
// remains for callers that need an exact canonical identity.
func (s *Subset) Key(dst []byte) []byte { return s.members.AppendKey(dst) }

// EntityCount pairs an entity with the number of member sets containing it.
type EntityCount struct {
	Entity Entity
	Count  int
}

// denseThreshold bounds the universe size for which entity counting uses a
// dense array (4 bytes per possible entity) instead of a map. Dense counting
// is several times faster on the experiment workloads; beyond the threshold
// the transient allocation would dominate small sub-collections. It is a
// variable only so tests can exercise both paths.
var denseThreshold = 1 << 21

// InformativeEntities returns, for every entity present in some but not all
// member sets, the number of member sets containing it (§3: uninformative
// entities — present in all or none — are excluded). The result is ordered
// by entity ID. Runs in O(total elements of member sets).
func (s *Subset) InformativeEntities() []EntityCount {
	if s.c.numEntities <= denseThreshold {
		return s.informativeDense()
	}
	counts := make(map[Entity]int)
	s.members.ForEach(func(i int) bool {
		for _, e := range s.c.sets[i].Elems {
			counts[e]++
		}
		return true
	})
	out := make([]EntityCount, 0, len(counts))
	for e, n := range counts {
		if n > 0 && n < s.size {
			out = append(out, EntityCount{e, n})
		}
	}
	// slices.SortFunc rather than sort.Slice: no closure-through-interface
	// indirection, and no reflect-based swapping — the only sort left on
	// the counting paths (the dense path is sort-free by construction).
	slices.SortFunc(out, func(a, b EntityCount) int {
		if a.Entity < b.Entity {
			return -1
		}
		if a.Entity > b.Entity {
			return 1
		}
		return 0
	})
	return out
}

// informativeDense is the array-counting fast path. It visits the touched
// entities twice (count, collect) and never sorts: member element lists are
// sorted, so collecting via a second pass over a sorted "touched" record
// keeps entity-ID order. To avoid sorting the touched list, it scans the
// count array range [lo, hi] observed during counting.
func (s *Subset) informativeDense() []EntityCount {
	counts := make([]int32, s.c.numEntities)
	lo, hi := s.c.numEntities, -1
	total := 0
	s.members.ForEach(func(i int) bool {
		elems := s.c.sets[i].Elems
		total += len(elems)
		if len(elems) > 0 {
			if first := int(elems[0]); first < lo {
				lo = first
			}
			if last := int(elems[len(elems)-1]); last > hi {
				hi = last
			}
		}
		for _, e := range elems {
			counts[e]++
		}
		return true
	})
	out := make([]EntityCount, 0, total/2+1)
	size := int32(s.size)
	for e := lo; e <= hi; e++ {
		if n := counts[e]; n > 0 && n < size {
			out = append(out, EntityCount{Entity(e), int(n)})
		}
	}
	return out
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
// O(|postings(e)| + words(members)).
func (s *Subset) Partition(e Entity) (with, without *Subset) {
	in := bitset.New(len(s.c.sets))
	for _, idx := range s.c.Postings(e) {
		if s.members.Test(int(idx)) {
			in.Set(int(idx))
		}
	}
	out := s.members.AndNot(in)
	withN := in.Count()
	return &Subset{c: s.c, members: in, size: withN},
		&Subset{c: s.c, members: out, size: s.size - withN}
}

// Without returns a copy of the sub-collection with set index i removed.
func (s *Subset) Without(i int) *Subset {
	if !s.members.Test(i) {
		return s
	}
	m := s.members.Clone()
	m.Clear(i)
	return &Subset{c: s.c, members: m, size: s.size - 1}
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
