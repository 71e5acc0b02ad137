package tree

import (
	"runtime"
	"sync"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
)

// everyOther returns the sub-collection of every other set of c. Build
// projects it onto a view that numbers its sets and entities unlike c, so
// a view-local set or entity leaking into a Node changes the tree, where
// over All() the numberings can coincide.
func everyOther(c *dataset.Collection) *dataset.Subset {
	var members []uint32
	for i := 0; i < c.Len(); i += 2 {
		members = append(members, uint32(i))
	}
	return c.SubsetOf(members)
}

// The parallel build must be a pure optimisation: for every worker count the
// tree is byte-identical (Render) and cost-identical to the sequential one,
// over the whole collection and over every other set.
func TestParallelBuildDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		c, err := synth.Generate(synth.Params{
			N: 120, SizeMin: 20, SizeMax: 30, Alpha: 0.85, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range []*dataset.Subset{c.All(), everyOther(c)} {
			for _, mk := range []func() strategy.Factory{
				func() strategy.Factory { return strategy.NewKLP(cost.AD, 2) },
				func() strategy.Factory { return strategy.NewKLPLVE(cost.AD, 3, 10) },
				func() strategy.Factory { return strategy.InfoGain{} },
			} {
				seq, err := Build(sub, mk(), WithParallelism(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := seq.Validate(sub); err != nil {
					t.Fatalf("seed %d %d sets sequential: %v", seed, sub.Size(), err)
				}
				want := seq.Render(c)
				for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
					par, err := Build(sub, mk(), WithParallelism(workers))
					if err != nil {
						t.Fatalf("seed %d %d sets workers %d: %v", seed, sub.Size(), workers, err)
					}
					if err := par.Validate(sub); err != nil {
						t.Fatalf("seed %d %d sets workers %d: %v", seed, sub.Size(), workers, err)
					}
					if got := par.Render(c); got != want {
						t.Errorf("seed %d %d sets workers %d (%s): parallel tree differs from sequential",
							seed, sub.Size(), workers, mk().Name())
					}
					if par.AvgDepth() != seq.AvgDepth() || par.Height() != seq.Height() {
						t.Errorf("seed %d %d sets workers %d: cost mismatch AD %f vs %f, H %d vs %d",
							seed, sub.Size(), workers, par.AvgDepth(), seq.AvgDepth(), par.Height(), seq.Height())
					}
				}
			}
		}
	}
}

// Reusing one factory across sequential and parallel builds (warm shared
// cache) must not change the result either.
func TestParallelBuildSharedFactoryDeterministic(t *testing.T) {
	c := testutil.PaperCollection()
	sub := c.All()
	f := strategy.NewKLP(cost.AD, 3)
	seq, err := Build(sub, f, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(sub, f, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render(c) != par.Render(c) {
		t.Error("warm-cache parallel build differs from sequential")
	}
	if f.CacheStats().Hits == 0 {
		t.Error("second build over the same collection recorded no cache hits")
	}
}

// Concurrent Build calls sharing one factory must be race-free and each
// deterministic (run with -race), over the whole collection and over every
// other set; every worker of a build reads the build's one view.
func TestConcurrentBuildsShareFactory(t *testing.T) {
	r := rng.New(5)
	c := testutil.RandomCollection(r, 40, 12)
	for _, sub := range []*dataset.Subset{c.All(), everyOther(c)} {
		f := strategy.NewKLP(cost.AD, 2)
		want, err := Build(sub, f, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		wantRender := want.Render(c)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := Build(sub, f, WithParallelism(2))
				if err != nil {
					t.Errorf("Build: %v", err)
					return
				}
				if err := tr.Validate(sub); err != nil {
					t.Errorf("%d sets: %v", sub.Size(), err)
				}
				if tr.Render(c) != wantRender {
					t.Errorf("%d sets: concurrent build produced a different tree", sub.Size())
				}
			}()
		}
		wg.Wait()
	}
}
