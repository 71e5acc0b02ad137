package dataset

import "setdiscovery/internal/bitset"

// Set-valued (group-testing) partitioning. An entity question splits a
// sub-collection by one entity's presence; a group question splits it by a
// *subset* of entities under one of two semantics:
//
//   - intersects: "does your set share at least one entity with S?" —
//     the yes half is every member set overlapping S (the union of the
//     question entities' postings);
//   - subset-of-target: "is S contained in your set?" — the yes half is
//     every member set containing all of S (the intersection of the
//     postings).
//
// Both are computed posting-list-first, like Partition: cost is
// O(Σ|postings(e)| + words(members)), independent of the members' sizes.

// groupMaskInto sets, in the zeroed bitset in, the member sets answering
// "yes" to the group question (members, subsetOf). The intersection of
// several postings borrows one temporary bitset from pool.
func (s *Subset) groupMaskInto(members []Entity, subsetOf bool, in *bitset.Bits, pool *bitset.Pool) {
	if !subsetOf {
		// Union of postings, masked to the current members.
		for _, e := range members {
			for _, idx := range s.c.Postings(e) {
				if s.members.Test(int(idx)) {
					in.Set(int(idx))
				}
			}
		}
		return
	}
	// Intersection of postings. The empty subset is contained in every set,
	// so with no members the yes half is the whole sub-collection.
	if len(members) == 0 {
		s.members.CopyInto(in)
		return
	}
	for _, idx := range s.c.Postings(members[0]) {
		if s.members.Test(int(idx)) {
			in.Set(int(idx))
		}
	}
	if len(members) == 1 {
		return
	}
	tmp := pool.Get(len(s.c.sets))
	for _, e := range members[1:] {
		postings := s.c.Postings(e)
		for _, idx := range postings {
			tmp.Set(int(idx))
		}
		in.InPlaceAnd(tmp)
		// Undo only the bits this entity set: cheaper than re-zeroing the
		// whole word array per entity, and it leaves tmp clean for reuse.
		for _, idx := range postings {
			tmp.Clear(int(idx))
		}
	}
	pool.Put(tmp)
}

// PartitionGroup splits the sub-collection by a group question into
// (yes, no): with subsetOf false the yes half is the members intersecting
// the question entities, with subsetOf true the members containing all of
// them. Like Partition, the results are unpooled.
func (s *Subset) PartitionGroup(members []Entity, subsetOf bool) (yes, no *Subset) {
	in := bitset.New(len(s.c.sets))
	s.groupMaskInto(members, subsetOf, in, bitset.NewPool())
	out := s.members.AndNot(in)
	yesN := in.Count()
	return &Subset{c: s.c, members: in, size: yesN},
		&Subset{c: s.c, members: out, size: s.size - yesN}
}

// PartitionGroupScratch is the pooled PartitionGroup: both results draw
// their bitsets from the scratch's pool and must be handed back with
// Release (or detached with Unpool), exactly like PartitionScratch results.
func (s *Subset) PartitionGroupScratch(members []Entity, subsetOf bool, sc *Scratch) (yes, no *Subset) {
	in := sc.pool.Get(len(s.c.sets))
	s.groupMaskInto(members, subsetOf, in, sc.pool)
	out := sc.pool.Get(len(s.c.sets))
	s.members.AndNotInto(in, out)
	yesN := in.Count()
	return sc.newSubset(s.c, in, yesN), sc.newSubset(s.c, out, s.size-yesN)
}

// GroupCoverage accumulates, entity by entity, the member sets a growing
// group question would reach under intersects semantics — the working state
// of the group strategies' split construction. The zero-cost query Gain
// reports how many members an entity would newly cover without committing
// it; Add commits it. Its bitset comes from a scratch's pool and goes back
// with Release.
type GroupCoverage struct {
	s       *Subset
	covered *bitset.Bits
	n       int
	sc      *Scratch // the scratch whose pool covered came from
}

// NewGroupCoverage starts an empty coverage over the sub-collection,
// drawing its bitset from the scratch's pool.
func (s *Subset) NewGroupCoverage(sc *Scratch) *GroupCoverage {
	return &GroupCoverage{s: s, covered: sc.pool.Get(len(s.c.sets)), sc: sc}
}

// Gain returns how many member sets e would newly cover.
func (cv *GroupCoverage) Gain(e Entity) int {
	n := 0
	for _, idx := range cv.s.c.Postings(e) {
		if cv.s.members.Test(int(idx)) && !cv.covered.Test(int(idx)) {
			n++
		}
	}
	return n
}

// Add commits e to the coverage, returning how many members it newly
// covered.
func (cv *GroupCoverage) Add(e Entity) int {
	n := 0
	for _, idx := range cv.s.c.Postings(e) {
		if cv.s.members.Test(int(idx)) && !cv.covered.Test(int(idx)) {
			cv.covered.Set(int(idx))
			n++
		}
	}
	cv.n += n
	return n
}

// Covered returns the number of member sets the committed entities reach.
func (cv *GroupCoverage) Covered() int { return cv.n }

// Release returns the coverage's bitset to the scratch pool; a no-op once
// released.
func (cv *GroupCoverage) Release() {
	cv.sc.pool.Put(cv.covered)
	cv.covered = nil
}
