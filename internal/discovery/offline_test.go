package discovery

import (
	"reflect"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/tree"
	"setdiscovery/internal/webtables"
)

func TestFollowTreeFindsEveryTarget(t *testing.T) {
	c := testutil.PaperCollection()
	tr := buildTree(t, c, strategy.NewKLP(cost.AD, 3))
	for _, target := range c.Sets() {
		res, err := FollowTree(c, tr, TargetOracle{target})
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != target {
			t.Errorf("FollowTree(%s) found %v", target.Name, res.Target)
		}
		if want := tr.Depth(target.Index); res.Questions != want {
			t.Errorf("%s: %d questions, tree depth %d", target.Name, res.Questions, want)
		}
	}
}

func TestFollowTreeMatchesOnlineDiscovery(t *testing.T) {
	// Offline (precomputed tree) and online (incremental selection) runs
	// with the same deterministic strategy ask the same number of
	// questions for every target.
	c := testutil.PaperCollection()
	tr := buildTree(t, c, strategy.NewKLP(cost.AD, 2))
	for _, target := range c.Sets() {
		offline, err := FollowTree(c, tr, TargetOracle{target})
		if err != nil {
			t.Fatal(err)
		}
		online, err := Run(c, nil, TargetOracle{target},
			Options{Strategy: strategy.NewKLP(cost.AD, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if offline.Questions != online.Questions {
			t.Errorf("%s: offline %d questions, online %d",
				target.Name, offline.Questions, online.Questions)
		}
	}
}

func TestFollowTreeUnknownStopsWithSubtree(t *testing.T) {
	c := testutil.PaperCollection()
	tr := buildTree(t, c, strategy.NewKLP(cost.AD, 3))
	rootEntity := tr.Root.Entity
	target := c.FindByName("S1")
	oracle := UnsureOracle{
		Inner:  TargetOracle{target},
		Unsure: map[dataset.Entity]bool{rootEntity: true},
	}
	res, err := FollowTree(c, tr, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != nil {
		t.Error("unknown at root still resolved a target")
	}
	if res.Unknowns != 1 {
		t.Errorf("Unknowns = %d", res.Unknowns)
	}
	// All 7 sets remain candidates: the root subtree covers everything.
	if res.Candidates.Size() != 7 {
		t.Errorf("candidates = %d, want 7", res.Candidates.Size())
	}
}

// TestKLPSharedBuildAndSession: tree.Build selects every node on a view of
// its sub-collection, and a session selects on subsets of the collection,
// but both key the lookahead cache by the global member sets, so one
// factory serves both. After a build over a web-tables seed
// sub-collection, a sibling's Select of the same root is answered by the
// entry the build's root selection left, without a miss, and picks what a
// fresh factory picks. Sessions from the same seed, whose every candidate
// set is a node of the tree, ask a fresh factory's questions, and every one
// of their selections is a cache hit.
func TestKLPSharedBuildAndSession(t *testing.T) {
	p := webtables.DefaultParams()
	p.NumSets = 2000
	c, err := webtables.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	qs := webtables.SeedQueries(c, 60, 8, 1)
	if len(qs) == 0 {
		t.Fatal("no seed query")
	}
	seed := []dataset.Entity{qs[0].A, qs[0].B}
	sub := c.SupersetsOf(seed)
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		f := strategy.NewKLP(m, 2)
		if _, err := tree.Build(sub, f, tree.WithParallelism(2)); err != nil {
			t.Fatal(err)
		}
		before := f.CacheStats()
		got, gotOK := f.New().Select(sub)
		want, wantOK := strategy.NewKLP(m, 2).New().Select(sub)
		after := f.CacheStats()
		if got != want || gotOK != wantOK {
			t.Fatalf("metric %v: after the build the factory picks (%d,%v), a fresh one (%d,%v)", m, got, gotOK, want, wantOK)
		}
		if after.Hits <= before.Hits || after.Misses != before.Misses {
			t.Fatalf("metric %v: selecting the built root took %d hits and %d misses; want a hit and no miss",
				m, after.Hits-before.Hits, after.Misses-before.Misses)
		}
		members := sub.Members()
		for i := 0; i < len(members); i += len(members)/8 + 1 {
			target := c.Set(int(members[i]))
			shared, err := Run(c, seed, TargetOracle{Target: target}, Options{Strategy: f.New()})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(c, seed, TargetOracle{Target: target}, Options{Strategy: strategy.NewKLP(m, 2).New()})
			if err != nil {
				t.Fatal(err)
			}
			if shared.Target != target || !reflect.DeepEqual(shared.Asked, fresh.Asked) {
				t.Fatalf("metric %v target %s: the build's factory asks %v, a fresh one %v", m, target.Name, shared.Asked, fresh.Asked)
			}
		}
		if misses := f.CacheStats().Misses - after.Misses; misses != 0 {
			t.Fatalf("metric %v: sessions over the built tree's nodes missed the cache %d times", m, misses)
		}
	}
}
