package dataset

import (
	"sort"
	"testing"
)

func names(sub *Subset) map[string]bool {
	m := make(map[string]bool)
	for _, n := range sub.Names() {
		m[n] = true
	}
	return m
}

func TestPartitionGroupIntersects(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	// d ∈ S1,S2,S3; g ∈ S4,S7 → yes = {S1,S2,S3,S4,S7}, no = {S5,S6}.
	yes, no := all.PartitionGroup([]Entity{entity(t, c, "d"), entity(t, c, "g")}, false)
	if yes.Size() != 5 || no.Size() != 2 {
		t.Fatalf("intersects sizes %d/%d, want 5/2", yes.Size(), no.Size())
	}
	got := names(no)
	if !got["S5"] || !got["S6"] {
		t.Errorf("no half = %v, want {S5,S6}", no.Names())
	}
}

func TestPartitionGroupSubsetOf(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	// {b,c} ⊆ S1,S3,S4 only.
	yes, no := all.PartitionGroup([]Entity{entity(t, c, "b"), entity(t, c, "c")}, true)
	if yes.Size() != 3 || no.Size() != 4 {
		t.Fatalf("subset-of sizes %d/%d, want 3/4", yes.Size(), no.Size())
	}
	got := names(yes)
	for _, want := range []string{"S1", "S3", "S4"} {
		if !got[want] {
			t.Errorf("yes half missing %s (got %v)", want, yes.Names())
		}
	}
}

func TestPartitionGroupSubsetOfEmptyMembers(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	// ∅ is contained in every set: the yes half is the full sub-collection.
	yes, no := all.PartitionGroup(nil, true)
	if yes.Size() != all.Size() || no.Size() != 0 {
		t.Fatalf("empty subset-of sizes %d/%d, want %d/0", yes.Size(), no.Size(), all.Size())
	}
}

func TestPartitionGroupSingleMemberMatchesPartition(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	for _, name := range []string{"b", "d", "g", "k"} {
		e := entity(t, c, name)
		with, without := all.Partition(e)
		for _, subsetOf := range []bool{false, true} {
			yes, no := all.PartitionGroup([]Entity{e}, subsetOf)
			if yes.Size() != with.Size() || no.Size() != without.Size() {
				t.Errorf("PartitionGroup({%s},%v) sizes %d/%d, Partition %d/%d",
					name, subsetOf, yes.Size(), no.Size(), with.Size(), without.Size())
			}
		}
	}
}

func TestPartitionGroupScratchMatchesUnpooled(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	sc := NewScratch()
	cases := [][]Entity{
		{entity(t, c, "d"), entity(t, c, "g")},
		{entity(t, c, "b"), entity(t, c, "c")},
		{entity(t, c, "b"), entity(t, c, "c"), entity(t, c, "d")},
		{entity(t, c, "k")},
		{},
	}
	for _, members := range cases {
		for _, subsetOf := range []bool{false, true} {
			wantYes, wantNo := all.PartitionGroup(members, subsetOf)
			yes, no := all.PartitionGroupScratch(members, subsetOf, sc)
			wy, gy := wantYes.Names(), yes.Names()
			wn, gn := wantNo.Names(), no.Names()
			sort.Strings(wy)
			sort.Strings(gy)
			sort.Strings(wn)
			sort.Strings(gn)
			if !eqStrings(wy, gy) || !eqStrings(wn, gn) {
				t.Errorf("members=%v subsetOf=%v: pooled %v/%v, unpooled %v/%v",
					members, subsetOf, gy, gn, wy, wn)
			}
			yes.Release()
			no.Release()
		}
	}
	if out := sc.Pool().Stats().Outstanding(); out != 0 {
		t.Fatalf("pool outstanding = %d after releases", out)
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGroupCoverage(t *testing.T) {
	c := paperCollection(t)
	all := c.All()
	sc := NewScratch()
	cv := all.NewGroupCoverage(sc)
	d, g := entity(t, c, "d"), entity(t, c, "g")
	if got := cv.Gain(d); got != 3 {
		t.Fatalf("Gain(d) = %d, want 3", got)
	}
	if got := cv.Add(d); got != 3 {
		t.Fatalf("Add(d) = %d, want 3", got)
	}
	// S3 already covered by d, so g (S4,S7) gains 2.
	if got := cv.Gain(g); got != 2 {
		t.Fatalf("Gain(g) after d = %d, want 2", got)
	}
	cv.Add(g)
	if cv.Covered() != 5 {
		t.Fatalf("Covered() = %d, want 5", cv.Covered())
	}
	// Re-adding gains nothing.
	if got := cv.Add(d); got != 0 {
		t.Fatalf("re-Add(d) = %d, want 0", got)
	}
	cv.Release()
	cv.Release() // double release is a no-op
	if out := sc.Pool().Stats().Outstanding(); out != 0 {
		t.Fatalf("pool outstanding = %d after coverage release", out)
	}
}

func TestGroupCoverageRespectsSubset(t *testing.T) {
	c := paperCollection(t)
	// Restrict to S4..S7 (indexes 3..6); d only appears in S1..S3, so its
	// gain inside the restriction must be zero.
	sub := c.SubsetOf([]uint32{3, 4, 5, 6})
	cv := sub.NewGroupCoverage(NewScratch())
	defer cv.Release()
	if got := cv.Gain(entity(t, c, "d")); got != 0 {
		t.Fatalf("Gain(d) in S4..S7 = %d, want 0", got)
	}
	if got := cv.Gain(entity(t, c, "g")); got != 2 {
		t.Fatalf("Gain(g) in S4..S7 = %d, want 2", got)
	}
}
