package optimal

import (
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/tree"
)

func TestOptimalCostPaperCollection(t *testing.T) {
	c := testutil.PaperCollection()
	if got := New(cost.AD).Cost(c.All()); got != 20 {
		t.Errorf("optimal AD scaled = %d, want 20 (Fig 2a: 2.857)", got)
	}
	if got := New(cost.H).Cost(c.All()); got != 3 {
		t.Errorf("optimal H = %d, want 3", got)
	}
}

// TestOptimalTreeBuild builds optimal trees over the paper's collection and
// over every other set of it. tree.Build selects on a view of each, whose
// local numbering differs from the collection's for the second, and the
// optimum is then computed on the global subset through the same memo.
func TestOptimalTreeBuild(t *testing.T) {
	c := testutil.PaperCollection()
	for _, sub := range []*dataset.Subset{c.All(), c.SubsetOf([]uint32{0, 2, 4, 6})} {
		for _, m := range []cost.Metric{cost.AD, cost.H} {
			s := New(m)
			tr, err := tree.Build(sub, s)
			if err != nil {
				t.Fatalf("%d sets metric %v: %v", sub.Size(), m, err)
			}
			if err := tr.Validate(sub); err != nil {
				t.Fatalf("%d sets metric %v: %v", sub.Size(), m, err)
			}
			if got, want := tr.ScaledCost(m), s.Cost(sub); got != want {
				t.Errorf("%d sets metric %v: built tree cost %d, DP optimum %d", sub.Size(), m, got, want)
			}
		}
	}
}

func TestOptimalAtLeastLB0(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(9), 2+r.Intn(7))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		for _, m := range []cost.Metric{cost.AD, cost.H} {
			if got := New(m).Cost(sub); got < cost.LB0(m, sub.Size()) {
				t.Errorf("trial %d metric %v: optimal %d below LB0 %d",
					trial, m, got, cost.LB0(m, sub.Size()))
			}
		}
	}
}

// The paper's §4.4.1 claim: k-LP finds an optimal solution when k is at
// least the height of an optimal tree. Verified against the DP optimum on
// random small instances by building the k-LP tree with k = n (always ≥
// optimal height).
func TestKLPReachesOptimumWithLargeK(t *testing.T) {
	r := rng.New(808)
	for trial := 0; trial < 25; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(8), 2+r.Intn(6))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		for _, m := range []cost.Metric{cost.AD, cost.H} {
			want := New(m).Cost(sub)
			tr, err := tree.Build(sub, strategy.NewKLP(m, sub.Size()))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got := tr.ScaledCost(m); got != want {
				t.Errorf("trial %d metric %v (%d sets): k-LP tree cost %d, optimum %d",
					trial, m, sub.Size(), got, want)
			}
		}
	}
}

// The k-LP lower bound with k ≥ optimal height equals the optimal cost
// exactly (the bound becomes tight).
func TestKLPLowerBoundTightAtLargeK(t *testing.T) {
	r := rng.New(313)
	for trial := 0; trial < 25; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(8), 2+r.Intn(6))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		for _, m := range []cost.Metric{cost.AD, cost.H} {
			want := New(m).Cost(sub)
			_, lb, found := strategy.NewKLP(m, sub.Size()).LowerBound(sub)
			if !found {
				t.Fatalf("trial %d: k-LP found nothing", trial)
			}
			if lb != want {
				t.Errorf("trial %d metric %v: LB_n = %d, optimum %d", trial, m, lb, want)
			}
		}
	}
}

// Lower bounds at any k never exceed the optimum (they are lower bounds).
func TestLBkNeverExceedsOptimum(t *testing.T) {
	r := rng.New(616)
	for trial := 0; trial < 25; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(9), 2+r.Intn(6))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		for _, m := range []cost.Metric{cost.AD, cost.H} {
			opt := New(m).Cost(sub)
			for k := 1; k <= 4; k++ {
				_, lb, found := strategy.NewKLP(m, k).LowerBound(sub)
				if !found {
					t.Fatal("k-LP found nothing")
				}
				if lb > opt {
					t.Errorf("trial %d metric %v k=%d: LB %d exceeds optimum %d",
						trial, m, k, lb, opt)
				}
			}
		}
	}
}

func TestOptimalSelectOnSingleton(t *testing.T) {
	c := testutil.PaperCollection()
	if _, ok := New(cost.AD).Select(c.SubsetOf([]uint32{0})); ok {
		t.Error("optimal.Select on singleton returned an entity")
	}
}
