package dataset

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"setdiscovery/internal/bitset"
)

// scratchTestCollection builds a small collection with overlapping sets so
// sub-collections have informative and uninformative entities.
func scratchTestCollection(t *testing.T) *Collection {
	t.Helper()
	c, err := FromIDSets(
		[]string{"a", "b", "c", "d", "e"},
		[][]Entity{
			{0, 1, 2, 9},
			{0, 2, 3},
			{1, 2, 4, 9},
			{2, 5, 6},
			{0, 6, 7, 8},
		}, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// naiveInformative is the independent reference counter of the counting
// suites: a map over the member sets, keeping the entities in some but not
// all of them, sorted by entity ID.
func naiveInformative(s *Subset) []EntityCount {
	counts := make(map[Entity]int)
	s.ForEachMember(func(set *Set) bool {
		for _, e := range set.Elems {
			counts[e]++
		}
		return true
	})
	var out []EntityCount
	for e, n := range counts {
		if n > 0 && n < s.Size() {
			out = append(out, EntityCount{e, n})
		}
	}
	slices.SortFunc(out, func(a, b EntityCount) int { return cmp.Compare(a.Entity, b.Entity) })
	return out
}

func sameEntityCounts(a, b []EntityCount) bool {
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

// TestInformativeEntitiesIntoMatches checks the scratch counter against the
// naive reference on both counting paths (dense array and sparse map),
// across sub-collections of the test fixture, including the degenerate
// single-member and empty ones.
func TestInformativeEntitiesIntoMatches(t *testing.T) {
	c := scratchTestCollection(t)
	subs := []*Subset{
		c.All(),
		c.SubsetOf([]uint32{0, 1}),
		c.SubsetOf([]uint32{0, 2, 4}),
		c.SubsetOf([]uint32{1, 3}),
		c.SubsetOf([]uint32{2}),
		c.SubsetOf(nil),
	}
	for _, forceSparse := range []bool{false, true} {
		name := "dense"
		if forceSparse {
			name = "sparse"
			restore := SetDenseThresholdForTest(0)
			defer restore()
		}
		sc := NewScratch()
		for i, sub := range subs {
			want := naiveInformative(sub)
			got := sub.InformativeEntitiesInto(sc)
			if !sameEntityCounts(got, want) {
				t.Errorf("%s path, sub %d: Into = %v, want %v", name, i, got, want)
			}
			// A second call on the same scratch must still be clean.
			again := sub.InformativeEntitiesInto(sc)
			if !sameEntityCounts(again, want) {
				t.Errorf("%s path, sub %d: second Into = %v, want %v (dirty scratch)", name, i, again, want)
			}
		}
	}
}

// TestInformativeEntitiesDenseSparseEquality forces denseThreshold down so
// the map path runs at a universe size where the dense path is also
// feasible, and checks that InformativeEntities returns the naive
// reference's counts on both paths.
func TestInformativeEntitiesDenseSparseEquality(t *testing.T) {
	c := scratchTestCollection(t)
	subs := []*Subset{c.All(), c.SubsetOf([]uint32{0, 1, 4}), c.SubsetOf([]uint32{1, 2})}
	for i, sub := range subs {
		want := naiveInformative(sub)
		dense := sub.InformativeEntities()
		restore := SetDenseThresholdForTest(0)
		sparse := sub.InformativeEntities()
		restore()
		if !sameEntityCounts(dense, want) {
			t.Errorf("sub %d: dense path %v, want %v", i, dense, want)
		}
		if !sameEntityCounts(sparse, want) {
			t.Errorf("sub %d: sparse path %v, want %v", i, sparse, want)
		}
	}
}

func TestPartitionScratchMatchesPartition(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()
	sub := c.All()
	for e := Entity(0); e < 10; e++ {
		w1, wo1 := sub.Partition(e)
		w2, wo2 := sub.PartitionScratch(e, sc)
		if w1.Size() != w2.Size() || wo1.Size() != wo2.Size() {
			t.Fatalf("entity %d: sizes (%d,%d) vs (%d,%d)", e, w1.Size(), wo1.Size(), w2.Size(), wo2.Size())
		}
		if !sameMembers(w1, w2) || !sameMembers(wo1, wo2) {
			t.Fatalf("entity %d: members differ", e)
		}
		w2.Release()
		wo2.Release()
	}
	if out := sc.Pool().Stats().Outstanding(); out != 0 {
		t.Fatalf("pool outstanding = %d after releasing everything", out)
	}
}

func sameMembers(a, b *Subset) bool {
	am, bm := a.Members(), b.Members()
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return true
}

// TestPartitionScratchRecursive splits recursively — the tree-build shape —
// releasing children after use, and checks the pool reaches a small steady
// state instead of growing with the recursion.
func TestPartitionScratchRecursive(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()
	var walk func(sub *Subset)
	walk = func(sub *Subset) {
		if sub.Size() <= 1 {
			return
		}
		for _, ec := range sub.InformativeEntitiesInto(sc) {
			with, without := sub.PartitionScratch(ec.Entity, sc)
			walk(with)
			walk(without)
			with.Release()
			without.Release()
			break // one split per level is enough for the shape
		}
	}
	walk(c.All())
	st := sc.Pool().Stats()
	if st.Outstanding() != 0 {
		t.Fatalf("pool outstanding = %d after recursive walk", st.Outstanding())
	}
	if st.Free > 16 {
		t.Fatalf("pool free list grew to %d; expected a depth-bounded steady state", st.Free)
	}
}

func TestReleaseOnUnpooledSubsetIsNoop(t *testing.T) {
	c := scratchTestCollection(t)
	sub := c.All()
	sub.Release() // must not panic or corrupt
	if sub.Size() != c.Len() {
		t.Fatalf("Release damaged an unpooled subset")
	}
	w, wo := sub.Partition(0)
	w.Release()
	wo.Release()
	if w.Size() == 0 && wo.Size() == 0 {
		t.Fatalf("Release damaged Partition results")
	}
}

func TestUnpoolDetaches(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()
	with, without := c.All().PartitionScratch(0, sc)
	with.Unpool()
	members := append([]uint32(nil), with.Members()...)
	with.Release() // no-op now
	without.Release()
	// Force pool reuse; the unpooled subset must be unaffected.
	a, b := c.All().PartitionScratch(2, sc)
	a.Release()
	b.Release()
	got := with.Members()
	if len(got) != len(members) {
		t.Fatalf("unpooled subset changed after pool reuse: %v vs %v", got, members)
	}
	for i := range got {
		if got[i] != members[i] {
			t.Fatalf("unpooled subset changed after pool reuse: %v vs %v", got, members)
		}
	}
	if sc.Pool().Stats().Outstanding() != 1 {
		t.Fatalf("outstanding = %d; the unpooled bitset should count as permanently out", sc.Pool().Stats().Outstanding())
	}
}

// TestScratchSteadyStateAllocs pins the tentpole property at the dataset
// layer: with a warm scratch, counting and partitioning allocate nothing —
// on the small fixture and on a universe of 2^18 entities.
func TestScratchSteadyStateAllocs(t *testing.T) {
	wide := wideTestCollection(t, 1<<18, 48, 2).All()
	cases := []struct {
		sub *Subset
		e   Entity
	}{
		{scratchTestCollection(t).All(), 2},
		{wide, wide.InformativeEntities()[0].Entity},
	}
	for _, tc := range cases {
		sub, e := tc.sub, tc.e
		sc := NewScratch()
		// Warm up: size the count array and bitmap, the EntityCount buffer
		// and the pool.
		sub.InformativeEntitiesInto(sc)
		w, wo := sub.PartitionScratch(e, sc)
		w.Release()
		wo.Release()
		allocs := testing.AllocsPerRun(200, func() {
			_ = sub.InformativeEntitiesInto(sc)
			with, without := sub.PartitionScratch(e, sc)
			with.Release()
			without.Release()
		})
		if allocs != 0 {
			t.Fatalf("%d-entity universe: steady-state scratch use: %.1f allocs/op, want 0",
				sub.Collection().NumEntities(), allocs)
		}
	}
}

// wideTestCollection builds n sets over a universe of numEntities IDs in
// which every set touches a handful of entities spread over a wide range:
// three of 16 hubs spaced evenly over the universe (at and next to bitmap
// word boundaries), two entities drawn at random, and entity 0 and the last
// entity. Every fourth set (indexes 3, 7, ...) keeps to the upper half of
// the universe instead, so sub-collections of those sets count a window
// that starts far from ID 0. Either way a sub-collection's window is tens
// of thousands of IDs wide while its members touch a small share of them.
func wideTestCollection(t testing.TB, numEntities, n int, seed int64) *Collection {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	hubs := make([]Entity, 16)
	for i := range hubs {
		hubs[i] = Entity(i*(numEntities/16) + 63 + i%2)
	}
	names := make([]string, n)
	elems := make([][]Entity, n)
	for i := range elems {
		names[i] = fmt.Sprintf("w%d", i)
		pool, lo := hubs, 0
		var e []Entity
		if i%4 == 3 {
			pool, lo = hubs[8:], numEntities/2
		} else {
			e = append(e, 0, Entity(numEntities-1))
		}
		for _, h := range r.Perm(len(pool))[:3] {
			e = append(e, pool[h])
		}
		for j := 0; j < 2; j++ {
			e = append(e, Entity(lo+r.Intn(numEntities-lo)))
		}
		elems[i] = e
	}
	c, err := FromIDSets(names, elems, numEntities, true)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInformativeEntitiesIntoWideUniverse checks counting where the window
// [lo, hi] is far wider than the entities counted, on both counting paths.
// One scratch serves sub-collections of two collections in turn, the
// smaller universe first, so the count array and the seen bitmap grow
// mid-test; every call must equal the naive reference and leave the
// scratch's counting state all zero.
func TestInformativeEntitiesIntoWideUniverse(t *testing.T) {
	small := wideTestCollection(t, 1<<16+1000, 40, 1)
	large := wideTestCollection(t, 1<<18, 48, 2)
	subs := []*Subset{small.All(), large.All()}
	for _, members := range [][]uint32{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23},
		{3, 7, 11, 15}, // upper-half sets only
		{2, 5},
		{4},
		nil,
	} {
		subs = append(subs, small.SubsetOf(members), large.SubsetOf(members))
	}
	want := make([][]EntityCount, len(subs))
	for i, sub := range subs {
		want[i] = naiveInformative(sub)
	}
	if len(want[0]) == 0 || len(want[1]) == 0 {
		t.Fatal("fixture has no informative entity")
	}
	for _, forceSparse := range []bool{false, true} {
		name := "dense"
		if forceSparse {
			name = "sparse"
			restore := SetDenseThresholdForTest(0)
			defer restore()
		}
		sc := NewScratch()
		for i, sub := range subs {
			got := sub.InformativeEntitiesInto(sc)
			if !sameEntityCounts(got, want[i]) {
				t.Errorf("%s path, sub %d (%d-entity universe): Into = %v, want %v",
					name, i, sub.Collection().NumEntities(), got, want[i])
			}
			if counts, words, sparse := sc.DirtyCountStateForTest(); counts+words+sparse != 0 {
				t.Fatalf("%s path, sub %d: scratch left %d counts, %d seen words and %d map entries non-zero",
					name, i, counts, words, sparse)
			}
		}
	}
}

// TestScratchSharedPool exercises the parallel-build arrangement: two
// scratches over one pool, with a subset produced by one scratch released
// while the other holds pool resources.
func TestScratchSharedPool(t *testing.T) {
	c := scratchTestCollection(t)
	pool := bitset.NewPool()
	sc1 := NewScratchWithPool(pool)
	sc2 := NewScratchWithPool(pool)
	w1, wo1 := c.All().PartitionScratch(0, sc1)
	w2, wo2 := c.All().PartitionScratch(1, sc2)
	w1.Release()
	wo1.Release()
	w2.Release()
	wo2.Release()
	if out := pool.Stats().Outstanding(); out != 0 {
		t.Fatalf("shared pool outstanding = %d", out)
	}
}
