package strategy

import (
	"fmt"
	"sync"
	"testing"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/webtables"
)

// scratchSubs builds a spread of sub-collections over a synthetic
// collection: the full collection plus both halves of a few partitions.
func scratchSubs(t testing.TB) []*dataset.Subset {
	t.Helper()
	c, err := synth.Generate(synth.Params{N: 60, SizeMin: 8, SizeMax: 14, Alpha: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	subs := []*dataset.Subset{c.All()}
	sub := c.All()
	for i := 0; i < 4; i++ {
		infos := sub.InformativeEntities()
		if len(infos) == 0 {
			break
		}
		with, without := sub.Partition(infos[len(infos)/2].Entity)
		subs = append(subs, with, without)
		if with.Size() >= 2 {
			sub = with
		} else if without.Size() >= 2 {
			sub = without
		} else {
			break
		}
	}
	return subs
}

// TestScratchSelectionsMatchUnpooled pins every strategy's Select pick on
// every sub-collection to testdata/selections.golden. The file was recorded
// while the allocating reference path still existed, from a build in which
// its picks equalled the scratch path's, so it is that reference's output.
// One warm instance per strategy runs two passes, and both must match.
// Each strategy with a selection cache runs a second time with the cache
// bounded at one entry per shard ("-bound64"): it must stay within its bound
// and still match the same lines, since evictions recompute.
// Regenerate the file only for a change meant to alter selections:
//
//	go test ./internal/strategy/ -run 'TestScratchSelect' -update
func TestScratchSelectionsMatchUnpooled(t *testing.T) {
	subs := scratchSubs(t)
	golden := goldenSelections(t, subs)
	for _, s := range goldenSelectionStrategies {
		t.Run(s.name, func(t *testing.T) {
			sel := s.f().New()
			for pass := range 2 {
				checkLines(t, golden, s.name+" select", pass, selectLines(s.name, sel, subs))
			}
		})
		// A bound of 64 gives each shard one entry; 256 gives it four, so
		// evictions also come from shards that hold several.
		for _, bound := range []int{64, 256} {
			f := s.f()
			if selectionCache(f) == nil {
				break
			}
			t.Run(fmt.Sprintf("%s-bound%d", s.name, bound), func(t *testing.T) {
				f.(interface{ SetCacheBound(int) }).SetCacheBound(bound)
				sel := f.New()
				for pass := range 2 {
					checkLines(t, golden, s.name+" select", pass, selectLines(s.name, sel, subs))
				}
				st := selectionCache(f).Stats()
				if st.Entries > bound {
					t.Fatalf("bounded cache holds %d entries, bound %d", st.Entries, bound)
				}
				t.Logf("bounded cache: %d entries, %d evictions", st.Entries, st.Evictions)
			})
		}
	}
}

// selectionCache returns the cache f's instances share, or nil for a
// strategy that caches nothing.
func selectionCache(f Factory) interface{ Stats() cache.Stats } {
	switch v := f.(type) {
	case *KLP:
		return v.cache
	case *GainK:
		if v.cache != nil {
			return v.cache
		}
	}
	return nil
}

// TestScratchSelectExcludingMatches pins the SelectExcluding pick of the
// five Excluders, with each sub-collection's first informative entity
// excluded, to the golden file, in two passes over one warm instance.
func TestScratchSelectExcludingMatches(t *testing.T) {
	subs := scratchSubs(t)
	golden := goldenSelections(t, subs)
	for _, s := range goldenSelectionStrategies {
		if !s.excluding {
			continue
		}
		sel := s.f().New().(Excluder)
		for pass := range 2 {
			checkLines(t, golden, s.name+" exclude", pass, excludeLines(t, s.name, sel, subs))
		}
	}
}

// TestGainKSteadyStateAllocs pins the allocation-free hot path on the
// strategy with no memo cache in the way: after one warm-up pass, Select
// through a scratch-carrying sibling allocates nothing.
func TestGainKSteadyStateAllocs(t *testing.T) {
	subs := scratchSubs(t)
	sel := NewGainK(2).New().(*GainK)
	for _, sub := range subs {
		sel.Select(sub)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, sub := range subs {
			sel.Select(sub)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state gain-k Select: %.1f allocs/op, want 0", allocs)
	}
}

// TestKLPWarmCacheSteadyStateAllocs: with the lookahead cache warm, a KLP
// Select is a fingerprint plus a cache hit — no allocation.
func TestKLPWarmCacheSteadyStateAllocs(t *testing.T) {
	subs := scratchSubs(t)
	sel := NewKLP(cost.AD, 2).New().(*KLP)
	for _, sub := range subs {
		sel.Select(sub)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, sub := range subs {
			sel.Select(sub)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-cache k-LP Select: %.1f allocs/op, want 0", allocs)
	}
}

// TestScratchBorrowedPerSelect: no strategy instance owns working memory.
// Every selection borrows its scratch for the call, from its factory
// lineage's free list (k-LP, gain-k) or the process-wide one (the
// baselines and the group strategies), so
//
//   - every built-in factory's New allocates at most the instance itself;
//   - on a warm lineage, a fresh sibling per Select, as the engine mints
//     one per session, allocates no more than a warm instance's Select
//     plus the sibling;
//   - siblings minted by four goroutines at once from one lineage pick
//     what a sequential fresh factory picks over overlapping roots (run
//     it with -race: they share the lookahead cache and the free list);
//   - a group strategy, an immutable value, picks from four goroutines at
//     once what a fresh value picks sequentially.
func TestScratchBorrowedPerSelect(t *testing.T) {
	subs := scratchSubs(t)
	for _, s := range goldenSelectionStrategies {
		f := s.f()
		if allocs := testing.AllocsPerRun(20, func() { f.New() }); allocs > 1 {
			t.Errorf("%s: New allocates %.1f objects, want at most the instance", s.name, allocs)
		}
		if k, ok := f.(*KLP); ok {
			a, b := k.New().(*KLP), k.New().(*KLP)
			if a.cache != b.cache || a.scratches != b.scratches {
				t.Fatalf("%s: siblings do not share the lineage's cache and free list", s.name)
			}
		}
		warm := f.New()
		checkFreshSiblingAllocs(t, s.name, subs,
			func(sub *dataset.Subset) { f.New().Select(sub) },
			func(sub *dataset.Subset) { warm.Select(sub) })

		want := make([]string, len(subs))
		for i, sub := range subs {
			want[i] = pick(s.f().New().Select(sub))
		}
		lineage := s.f()
		concurrentPicks(t, s.name, want, func(i int) string { return pick(lineage.New().Select(subs[i])) })
	}
	for _, name := range []string{"halving", "additive"} {
		mk := func() grouptest.Strategy {
			g, err := grouptest.New(name, []grouptest.Constraint{{If: 1, Then: 2}, {If: 3, Then: 5}})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		want := make([]string, len(subs))
		for i, sub := range subs {
			want[i] = fmt.Sprint(mk().SelectSubset(sub, nil))
		}
		shared := mk()
		concurrentPicks(t, name, want, func(i int) string { return fmt.Sprint(shared.SelectSubset(subs[i], nil)) })
	}
}

// checkFreshSiblingAllocs fails unless a pass of fresh (a selection through
// a freshly minted sibling) over subs allocates no more than a pass of warm
// (the same selection through one warm instance) plus the fresh siblings
// themselves. Both run on a lineage warmed by two passes of each first.
func checkFreshSiblingAllocs(t *testing.T, name string, subs []*dataset.Subset, fresh, warm func(*dataset.Subset)) {
	t.Helper()
	pass := func(sel func(*dataset.Subset)) func() {
		return func() {
			for _, sub := range subs {
				sel(sub)
			}
		}
	}
	for range 2 {
		pass(fresh)()
		pass(warm)()
	}
	warmAllocs := testing.AllocsPerRun(20, pass(warm))
	freshAllocs := testing.AllocsPerRun(20, pass(fresh))
	if limit := warmAllocs + float64(len(subs)); freshAllocs > limit {
		t.Errorf("%s: a fresh sibling per Select allocates %.1f objects per pass, a warm instance %.1f: want at most %.1f",
			name, freshAllocs, warmAllocs, limit)
	}
}

// concurrentPicks runs four goroutines that each make pickAt(i) for every
// root i twice, starting at different roots, and fails unless every pick
// equals want[i].
func concurrentPicks(t *testing.T, name string, want []string, pickAt func(i int) string) {
	t.Helper()
	n := len(want)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 2 * n {
				i := (j + g*n/4) % n
				if got := pickAt(i); got != want[i] {
					t.Errorf("%s: goroutine %d picks %s on root %d, a sequential fresh factory %s", name, g, got, i, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKLPSharedFactoryOverlappingRoots: one k-LP instance, whose lookahead
// cache and view buffers serve every root in turn, picks at each round of
// interleaved discovery sessions what a fresh factory picks. The sessions
// start from two seed pairs over one web-tables collection and walk down
// to their targets, so the roots overlap: each is a subset of the one
// before, and the cache holds entries for sub-collections of both seeds,
// keyed by the global member sets whichever view computed them.
func TestKLPSharedFactoryOverlappingRoots(t *testing.T) {
	p := webtables.DefaultParams()
	p.NumSets = 2000
	c, err := webtables.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	qs := webtables.SeedQueries(c, 60, 8, 1)
	if len(qs) < 2 {
		t.Fatalf("corpus yields %d seed queries, want ≥ 2", len(qs))
	}
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		shared := NewKLP(m, 2).New()
		// One session per target: its current candidate sub-collection.
		var sessions []*dataset.Subset
		var targets []*dataset.Set
		for _, q := range qs[:2] {
			seed := c.SupersetsOf([]dataset.Entity{q.A, q.B})
			members := seed.Members()
			for i := 0; i < len(members); i += len(members)/6 + 1 {
				sessions = append(sessions, seed)
				targets = append(targets, c.Set(int(members[i])))
			}
		}
		for round, live := 0, len(sessions); live > 0; round++ {
			live = 0
			for i, sub := range sessions {
				if sub.Size() <= 1 {
					continue
				}
				live++
				got, gotOK := shared.Select(sub)
				want, wantOK := NewKLP(m, 2).New().Select(sub)
				if got != want || gotOK != wantOK || !gotOK {
					t.Fatalf("metric %v session %d round %d: shared factory picks (%d,%v), fresh (%d,%v)",
						m, i, round, got, gotOK, want, wantOK)
				}
				with, without := sub.Partition(got)
				if targets[i].Contains(got) {
					sessions[i] = with
				} else {
					sessions[i] = without
				}
			}
		}
	}
}
