package tree

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"setdiscovery/internal/bitset"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
)

func pooledTestCollection(t testing.TB) *dataset.Collection {
	t.Helper()
	c, err := synth.Generate(synth.Params{N: 80, SizeMin: 10, SizeMax: 16, Alpha: 0.85, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func serializeTree(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledBuildByteIdentical builds the 80-set synthetic collection with
// the cases of the pooled-versus-allocating check that recorded them, at one,
// two and four workers, and requires each tree to serialize byte for byte to
// its golden tree and to validate. One pool serves every build, so each
// build after the first runs on bitsets recycled from the builds before it,
// and each build must hand every bitset back.
func TestPooledBuildByteIdentical(t *testing.T) {
	sub := pooledTestCollection(t).All()
	pool := bitset.NewPool()
	for _, f := range []struct {
		name, golden string
		f            func() strategy.Factory
	}{
		{"klp-k2", "synth80-klp-k2-ad", func() strategy.Factory { return strategy.NewKLP(cost.AD, 2) }},
		{"klple-k3-q8", "synth80-klple-k3-q8", func() strategy.Factory { return strategy.NewKLPLE(cost.AD, 3, 8) }},
		{"infogain", "synth80-infogain", func() strategy.Factory { return strategy.InfoGain{} }},
		{"gaink-2", "synth80-gaink-2", func() strategy.Factory { return strategy.NewGainK(2) }},
	} {
		t.Run(f.name, func(t *testing.T) {
			path := filepath.Join("testdata", f.golden+".tree")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := Build(sub, f.f(), WithParallelism(workers), withSharedPool(pool))
				if err != nil {
					t.Fatal(err)
				}
				if b := serializeTree(t, got); !bytes.Equal(b, want) {
					t.Fatalf("workers=%d: tree differs from %s at byte %d", workers, path, firstDiff(b, want))
				}
				if err := got.Validate(sub); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if out := pool.Stats().Outstanding(); out != 0 {
					t.Fatalf("workers=%d: %d pooled bitsets outstanding after the build", workers, out)
				}
			}
		})
	}
}

// TestBuildReturnsEveryPooledBitset is the leak check: after a full build — sequential and parallel — every bitset drawn from the
// injected pool has been handed back.
func TestBuildReturnsEveryPooledBitset(t *testing.T) {
	c := pooledTestCollection(t)
	sub := c.All()
	for _, workers := range []int{1, 2, 4} {
		pool := bitset.NewPool()
		if _, err := Build(sub, strategy.NewKLP(cost.AD, 2), WithParallelism(workers), withSharedPool(pool)); err != nil {
			t.Fatal(err)
		}
		st := pool.Stats()
		if st.Gets == 0 {
			t.Fatalf("workers=%d: build drew nothing from the injected pool", workers)
		}
		if out := st.Outstanding(); out != 0 {
			t.Fatalf("workers=%d: %d pooled bitsets leaked (%d gets, %d puts)",
				workers, out, st.Gets, st.Puts)
		}
	}
}

// TestBuildPoolSteadyState: the pool's free lists stay bounded by tree
// depth × workers, not by node count — the whole point of releasing.
func TestBuildPoolSteadyState(t *testing.T) {
	c := pooledTestCollection(t)
	sub := c.All()
	pool := bitset.NewPool()
	tr, err := Build(sub, strategy.NewKLP(cost.AD, 2), WithParallelism(2), withSharedPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound: two live subsets per ancestor level per worker context,
	// with slack for fork-join overlap. A per-node leak would show up as
	// free ≈ 2·internal nodes (158 here).
	limit := 4 * (tr.Height() + 2) * 2
	if st := pool.Stats(); st.Free > limit {
		t.Fatalf("pool free list = %d bitsets; want ≤ %d (depth-bounded)", st.Free, limit)
	}
}

// TestBuildErrorPathsStillWork: a strategy failure surfaces identically
// through the pooled build.
func TestBuildErrorPathsStillWork(t *testing.T) {
	c := pooledTestCollection(t)
	if _, err := Build(c.SubsetOf(nil), strategy.NewKLP(cost.AD, 2)); err == nil {
		t.Fatal("empty sub-collection did not fail")
	}
}

// fixedEntity always proposes the same entity. The root split succeeds;
// the child whose sets all contain the entity gets the same proposal
// again, which no longer splits — driving build's error return with live
// pooled partitions up the recursion stack.
type fixedEntity struct{ e dataset.Entity }

func (f fixedEntity) Name() string                                      { return "fixed" }
func (f fixedEntity) New() strategy.Strategy                            { return f }
func (f fixedEntity) Select(sub *dataset.Subset) (dataset.Entity, bool) { return f.e, true }

// TestBuildErrorPathsReleaseEveryPooledBitset is the poolcheck regression
// test for the error returns in builder.build: a failing build — inline
// and forked — must still hand back every bitset drawn from the pool.
// Before the fix, the non-splitting-entity return and the two
// child-error returns each leaked both partition halves.
func TestBuildErrorPathsReleaseEveryPooledBitset(t *testing.T) {
	c := pooledTestCollection(t)
	sub := c.All()
	var e dataset.Entity
	found := false
	for _, ec := range sub.InformativeEntities() {
		if ec.Count > 0 && ec.Count < sub.Size() {
			e = ec.Entity
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no informative entity in test collection")
	}
	for _, workers := range []int{1, 2, 4} {
		pool := bitset.NewPool()
		_, err := Build(sub, fixedEntity{e: e}, WithParallelism(workers), withSharedPool(pool))
		if err == nil {
			t.Fatalf("workers=%d: repeated entity %d built a tree; want non-splitting error", workers, e)
		}
		st := pool.Stats()
		if st.Gets == 0 {
			t.Fatalf("workers=%d: failing build drew nothing from the injected pool", workers)
		}
		if out := st.Outstanding(); out != 0 {
			t.Fatalf("workers=%d: failing build leaked %d pooled bitsets (%d gets, %d puts)",
				workers, out, st.Gets, st.Puts)
		}
	}
}
