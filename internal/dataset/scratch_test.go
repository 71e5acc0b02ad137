package dataset

import (
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

// TestInformativeEntitiesIntoMatches checks the scratch path against the
// allocating path on both counting strategies (dense array and sparse map),
// across every 2+-member sub-collection of the test fixture.
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
			want := sub.InformativeEntities()
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
// feasible, and checks both produce identical results — previously only the
// dense path was exercised at realistic universe sizes.
func TestInformativeEntitiesDenseSparseEquality(t *testing.T) {
	c := scratchTestCollection(t)
	subs := []*Subset{c.All(), c.SubsetOf([]uint32{0, 1, 4}), c.SubsetOf([]uint32{1, 2})}
	for i, sub := range subs {
		dense := sub.InformativeEntities()
		restore := SetDenseThresholdForTest(0)
		sparse := sub.InformativeEntities()
		restore()
		if !sameEntityCounts(dense, sparse) {
			t.Errorf("sub %d: dense path %v != sparse path %v", i, dense, sparse)
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
// layer: with a warm scratch, counting and partitioning allocate nothing.
func TestScratchSteadyStateAllocs(t *testing.T) {
	c := scratchTestCollection(t)
	sub := c.All()
	sc := NewScratch()
	// Warm up: size the count array, the EntityCount buffer and the pool.
	sub.InformativeEntitiesInto(sc)
	w, wo := sub.PartitionScratch(2, sc)
	w.Release()
	wo.Release()
	allocs := testing.AllocsPerRun(200, func() {
		_ = sub.InformativeEntitiesInto(sc)
		with, without := sub.PartitionScratch(2, sc)
		with.Release()
		without.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scratch use: %.1f allocs/op, want 0", allocs)
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
