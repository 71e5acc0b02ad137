// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact, named after it), plus ablation and
// micro-benchmarks of the pruning, caching and selection-path choices.
//
// Run everything:      go test -bench=. -benchmem
// One artifact:        go test -bench=BenchmarkFig8a -benchmem
// Paper-scale numbers: use cmd/experiments -full instead; benchmarks run
// the Quick configuration so the whole suite finishes in minutes.
package setdiscovery

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
	"setdiscovery/internal/experiments"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/tree"
	"setdiscovery/internal/webtables"
)

// benchExperiment runs one experiment per iteration and reports its table
// on the first iteration under -v.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			var sb stringsBuilder
			if err := res.Table.Render(&sb); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
		}
	}
}

// stringsBuilder avoids importing strings solely for the Builder.
type stringsBuilder struct{ buf []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}
func (s *stringsBuilder) String() string { return string(s.buf) }

// --- one benchmark per paper artifact, by its cmd/experiments ID ---

func BenchmarkTable1a(b *testing.B) { benchExperiment(b, "table1a") }
func BenchmarkTable1b(b *testing.B) { benchExperiment(b, "table1b") }
func BenchmarkTable1c(b *testing.B) { benchExperiment(b, "table1c") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4a(b *testing.B)   { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)   { benchExperiment(b, "fig4b") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)   { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)   { benchExperiment(b, "fig8b") }
func BenchmarkSec532(b *testing.B)  { benchExperiment(b, "sec532") }
func BenchmarkSec533(b *testing.B)  { benchExperiment(b, "sec533") }

// --- shared fixtures for the ablation benchmarks ---

// benchCollection is a mid-size synthetic collection (200 sets, α=0.9).
func benchCollection(b *testing.B) *dataset.Collection {
	b.Helper()
	c, err := synth.Generate(synth.Params{
		N: 200, SizeMin: 50, SizeMax: 60, Alpha: 0.9, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// --- ablations ---

// BenchmarkPruningAblation measures the contribution of each pruning site
// of Algorithm 1 to root entity selection.
func BenchmarkPruningAblation(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	variants := []struct {
		name string
		mk   func() *strategy.KLP
	}{
		{"full-pruning", func() *strategy.KLP { return strategy.NewKLP(cost.AD, 2) }},
		{"no-sort-prune", func() *strategy.KLP { return strategy.NewKLP(cost.AD, 2).DisableSortPrune() }},
		{"no-ul-prune", func() *strategy.KLP { return strategy.NewKLP(cost.AD, 2).DisableULPrune() }},
		{"no-pruning", func() *strategy.KLP {
			return strategy.NewKLP(cost.AD, 2).DisableSortPrune().DisableULPrune()
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := v.mk().Select(sub); !ok {
					b.Fatal("selection failed")
				}
			}
		})
	}
}

// BenchmarkGainKMemo contrasts unpruned gain-k with its memoised variant,
// showing the paper's speedup is not mere caching.
func BenchmarkGainKMemo(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strategy.NewGainK(2).Select(sub)
		}
	})
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strategy.NewGainKMemo(2).Select(sub)
		}
	})
	b.Run("klp-pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strategy.NewKLP(cost.AD, 2).Select(sub)
		}
	})
}

// BenchmarkFingerprint measures the 128-bit subset fingerprint that keys the
// concurrency-safe selection caches.
func BenchmarkFingerprint(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sub.Fingerprint()
	}
}

// BenchmarkBuildParallel measures offline construction (Algorithm 3) across
// worker counts, reporting the shared lookahead cache's hit rate and
// allocation profile. The tree is identical at every width; only wall-clock
// changes.
func BenchmarkBuildParallel(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	workers := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var sel *strategy.KLP
			for i := 0; i < b.N; i++ {
				sel = strategy.NewKLP(cost.AD, 2)
				if _, err := tree.Build(sub, sel, tree.WithParallelism(w)); err != nil {
					b.Fatal(err)
				}
			}
			st := sel.CacheStats()
			b.ReportMetric(st.HitRate()*100, "cachehit%")
		})
	}
}

// BenchmarkSelectSteadyState measures one full k-LP root selection with a
// cold lookahead cache but a warm scratch — the steady state of a lineage
// whose every node allocation is served by the arena a Select borrows.
// (Without the cache reset every iteration after the first would be a pure
// cache hit.)
func BenchmarkSelectSteadyState(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	sel := strategy.NewKLP(cost.AD, 2).New().(*strategy.KLP)
	if _, ok := sel.Select(sub); !ok { // size the scratch before timing
		b.Fatal("selection failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.ResetCache()
		if _, ok := sel.Select(sub); !ok {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSelectSubCollection is BenchmarkSelectSteadyState over seed
// sub-collections of web-tables corpora. Every selection runs on a compact
// view of its root, whose bitsets are ⌈n/64⌉ words (14 for 850 sets)
// whatever the corpus, so the cases differ in the size and number of the
// lookahead nodes, not in the corpus size.
//
//   - corpus-2k: one k-LP (k=2) root selection per iteration, with a cold
//     lookahead cache and a warm scratch, over 60 member sets of a
//     2,000-set corpus that touch 947 entities spread over IDs up to
//     about 64k.
//   - corpus-40k: the same over the largest of the first 64 seed
//     sub-collections of the default 40k-set corpus that holds at most 850
//     sets, the largest tree the tree-build workload builds.
//   - corpus-40k-tree: a sequential tree.Build of that sub-collection per
//     iteration with a fresh k-LP factory, as the tree-build workload
//     builds it: the selections of every node, whose lookahead reaches
//     nodes the root's does not.
func BenchmarkSelectSubCollection(b *testing.B) {
	b.Run("corpus-2k", func(b *testing.B) {
		p := webtables.DefaultParams()
		p.NumSets = 2000
		c, err := webtables.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		qs := webtables.SeedQueries(c, 60, 8, 1)
		if len(qs) == 0 {
			b.Fatal("no seed query")
		}
		benchSelectRoot(b, c.SupersetsOf([]dataset.Entity{qs[0].A, qs[0].B}))
	})
	b.Run("corpus-40k", func(b *testing.B) {
		seed, err := corpus40kSeed()
		if err != nil {
			b.Fatal(err)
		}
		benchSelectRoot(b, seed.sub)
	})
	b.Run("corpus-40k-tree", func(b *testing.B) {
		seed, err := corpus40kSeed()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.Build(seed.sub, strategy.NewKLP(cost.AD, 2), tree.WithParallelism(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// seedQuery is a seed sub-collection and the two examples that select it.
type seedQuery struct {
	sub      *dataset.Subset
	examples []dataset.Entity
}

// corpus40k generates the default 40k-set web-tables corpus (about 1 s) on
// first use.
var corpus40k = sync.OnceValues(func() (*dataset.Collection, error) {
	return webtables.Generate(webtables.DefaultParams())
})

// corpus40kSeed returns the corpus-40k sub-collection of
// BenchmarkSelectSubCollection and its two examples.
var corpus40kSeed = sync.OnceValues(func() (seedQuery, error) {
	c, err := corpus40k()
	if err != nil {
		return seedQuery{}, err
	}
	var best *webtables.SeedQuery
	qs := webtables.SeedQueries(c, 100, 64, 1)
	for i := range qs {
		if q := &qs[i]; q.Size <= 850 && (best == nil || q.Size > best.Size) {
			best = q
		}
	}
	if best == nil {
		return seedQuery{}, fmt.Errorf("no seed query selects 100..850 sets")
	}
	examples := []dataset.Entity{best.A, best.B}
	return seedQuery{c.SupersetsOf(examples), examples}, nil
})

// BenchmarkReadCollection loads the corpus-40k collection from its text
// format (12.1 MB, as perfbench's web workloads load it) through
// ReadCollection once per iteration, and reports the heap one loaded
// collection retains after garbage collection (retained-MB, in 10^6 bytes):
// what an engine keeps resident for each collection it serves.
func BenchmarkReadCollection(b *testing.B) {
	c, err := corpus40k()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	load := func() *Collection {
		c, err := ReadCollection(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
	b.ReportAllocs()
	for b.Loop() {
		load()
	}
	b.ReportMetric(retained, "retained-MB")
}

// benchSelectRoot times one cold-cache k-LP (k=2) root selection over sub
// per iteration, through a scratch sized by an untimed first selection.
func benchSelectRoot(b *testing.B, sub *dataset.Subset) {
	sel := strategy.NewKLP(cost.AD, 2).New().(*strategy.KLP)
	if _, ok := sel.Select(sub); !ok {
		b.Fatal("selection failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.ResetCache()
		if _, ok := sel.Select(sub); !ok {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkSessionSteadyState measures a whole discovery session per
// iteration over one shared k-LP factory, each session on a sibling minted
// fresh from it, as the engine mints one per session: the serving-layer
// steady state where borrowed scratches, the session subset recycling and
// the warm lookahead cache all apply.
//
//   - synth-200: sessions from no example towards a random set of the
//     200-set synthetic benchmark collection.
//   - corpus-40k: sessions from the two examples of the corpus-40k seed
//     (BenchmarkSelectSubCollection) towards a random set of the
//     sub-collection they select, over the 40k-set corpus, as web-sessions
//     serves its seed queries.
func BenchmarkSessionSteadyState(b *testing.B) {
	b.Run("synth-200", func(b *testing.B) {
		c := benchCollection(b)
		benchSessions(b, c.All(), nil)
	})
	b.Run("corpus-40k", func(b *testing.B) {
		seed, err := corpus40kSeed()
		if err != nil {
			b.Fatal(err)
		}
		benchSessions(b, seed.sub, seed.examples)
	})
}

// benchSessions times one session per iteration from the examples towards
// a random member of seed, the sub-collection the examples select.
func benchSessions(b *testing.B, seed *dataset.Subset, examples []dataset.Entity) {
	c := seed.Collection()
	members := seed.Members()
	f := strategy.NewKLP(cost.AD, 2)
	r := rng.New(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := c.Set(int(members[r.Intn(len(members))]))
		res, err := discovery.Run(c, examples, discovery.TargetOracle{Target: target},
			discovery.Options{Strategy: f.New()})
		if err != nil {
			b.Fatal(err)
		}
		if res.Target != target {
			b.Fatal("discovery missed")
		}
	}
}

// BenchmarkBatchDiscovery measures a batch's amortisation: 64
// concurrent sessions with identical seeds and identical answers cost one
// selection computation per round in a Batch ("selcomp/sess" ≈ a single
// session's count) versus 64× as independent sessions. The mixed variant
// gives every member its own target, so states diverge round by round and
// sharing degrades gracefully instead of vanishing. Every batch starts on a
// fresh selection memo, so "selcomp/sess" counts one batch's computations.
// Compare ns/op across the variants for the wall-clock side of the same
// story.
func BenchmarkBatchDiscovery(b *testing.B) {
	c := benchCollection(b)
	const n = 64
	target := c.Set(c.Len() - 1)

	driveBatch := func(b *testing.B, bt *discovery.Batch, oracles []discovery.Oracle) {
		b.Helper()
		for !bt.Done() {
			for i := 0; i < bt.Len(); i++ {
				m := bt.Member(i)
				if m.Done() {
					continue
				}
				if set, ok := m.PendingConfirm(); ok {
					a := discovery.No
					if conf, can := oracles[i].(discovery.Confirmer); can && conf.Confirm(set) {
						a = discovery.Yes
					}
					if err := m.Answer(a); err != nil {
						b.Fatal(err)
					}
					continue
				}
				e, done := m.Next()
				if done {
					continue
				}
				if err := m.Answer(oracles[i].Answer(e)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("batch-64-identical", func(b *testing.B) {
		f := strategy.NewKLP(cost.AD, 2)
		oracles := make([]discovery.Oracle, n)
		for i := range oracles {
			oracles[i] = discovery.TargetOracle{Target: target}
		}
		b.ReportAllocs()
		var st discovery.BatchStats
		for i := 0; i < b.N; i++ {
			bt, err := discovery.NewBatch(c, make([][]dataset.Entity, n),
				discovery.Options{Strategy: f.New(), Memo: discovery.NewSelectionMemo(0)})
			if err != nil {
				b.Fatal(err)
			}
			driveBatch(b, bt, oracles)
			st = bt.Stats()
		}
		b.ReportMetric(float64(st.Selections)/n, "selcomp/sess")
		b.ReportMetric(float64(st.Selections+st.SelectionsShared)/float64(st.Selections), "amortisation")
	})

	b.Run("batch-64-mixed", func(b *testing.B) {
		f := strategy.NewKLP(cost.AD, 2)
		oracles := make([]discovery.Oracle, n)
		for i := range oracles {
			oracles[i] = discovery.TargetOracle{Target: c.Set(i % c.Len())}
		}
		b.ReportAllocs()
		var st discovery.BatchStats
		for i := 0; i < b.N; i++ {
			bt, err := discovery.NewBatch(c, make([][]dataset.Entity, n),
				discovery.Options{Strategy: f.New(), Memo: discovery.NewSelectionMemo(0)})
			if err != nil {
				b.Fatal(err)
			}
			driveBatch(b, bt, oracles)
			st = bt.Stats()
		}
		b.ReportMetric(float64(st.Selections)/n, "selcomp/sess")
		b.ReportMetric(float64(st.Selections+st.SelectionsShared)/float64(st.Selections), "amortisation")
	})

	b.Run("independent-64", func(b *testing.B) {
		f := strategy.NewKLP(cost.AD, 2)
		b.ReportAllocs()
		selections := 0
		for i := 0; i < b.N; i++ {
			selections = 0
			for j := 0; j < n; j++ {
				res, err := discovery.Run(c, nil, discovery.TargetOracle{Target: target},
					discovery.Options{Strategy: f.New()})
				if err != nil {
					b.Fatal(err)
				}
				// One selection computation per interaction: the
				// independent-session baseline for selcomp/sess.
				selections += res.Interactions
			}
		}
		b.ReportMetric(float64(selections)/n, "selcomp/sess")
	})
}

// BenchmarkSharedSelection measures the collection-wide selection memo: 64
// *solo* sessions (no Batch) driven one after another, shared
// versus unshared. With identical targets every session after the first
// walks a fully memoised question path, so selections computed per session
// collapse toward zero ("selcomp/sess"); divergent targets share only the
// popular prefix near the root. The -1 variants pin the single-session
// overhead of routing through the memo (the ≤5% regression budget).
func BenchmarkSharedSelection(b *testing.B) {
	c := benchCollection(b)
	const n = 64

	run := func(b *testing.B, memo *discovery.SelectionMemo, targets []*dataset.Set) int {
		b.Helper()
		selections := 0
		f := strategy.NewKLP(cost.AD, 2)
		for _, target := range targets {
			res, err := discovery.Run(c, nil, discovery.TargetOracle{Target: target},
				discovery.Options{Strategy: f.New(), Memo: memo, MemoAux: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Target != target {
				b.Fatal("discovery missed")
			}
			// The unshared baseline computes one selection per interaction;
			// shared runs report the memo's own Computed counter instead.
			selections += res.Interactions
		}
		return selections
	}

	identical := make([]*dataset.Set, n)
	divergent := make([]*dataset.Set, n)
	for i := range identical {
		identical[i] = c.Set(c.Len() - 1)
		divergent[i] = c.Set(i % c.Len())
	}

	variants := []struct {
		name    string
		shared  bool
		targets []*dataset.Set
	}{
		{"shared-64-identical", true, identical},
		{"unshared-64-identical", false, identical},
		{"shared-64-divergent", true, divergent},
		{"unshared-64-divergent", false, divergent},
		{"shared-1", true, identical[:1]},
		{"unshared-1", false, identical[:1]},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			sessions := float64(len(v.targets))
			var selcomp float64
			for i := 0; i < b.N; i++ {
				if v.shared {
					memo := discovery.NewSelectionMemo(0)
					run(b, memo, v.targets)
					selcomp = float64(memo.Stats().Computed)
				} else {
					selcomp = float64(run(b, nil, v.targets))
				}
			}
			b.ReportMetric(selcomp/sessions, "selcomp/sess")
		})
	}
}

// BenchmarkPartition measures sub-collection splitting via the inverted
// index (the inner loop of every lookahead step): a pooled split on a warm
// scratch, both halves released.
func BenchmarkPartition(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	sc := dataset.NewScratch()
	infos := sub.InformativeEntitiesInto(sc)
	if len(infos) == 0 {
		b.Fatal("no informative entities")
	}
	e := infos[len(infos)/2].Entity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, without := sub.PartitionScratch(e, sc)
		with.Release()
		without.Release()
	}
}

// BenchmarkInformativeEntities measures per-node candidate counting on a
// warm scratch.
func BenchmarkInformativeEntities(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	sc := dataset.NewScratch()
	sub.InformativeEntitiesInto(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.InformativeEntitiesInto(sc)
	}
}

// BenchmarkCeilNLog2 measures the exact ⌈n·log2 n⌉ used by every AD bound.
func BenchmarkCeilNLog2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost.CeilNLog2(i%100000 + 2)
	}
}

// BenchmarkTreeBuild measures full offline construction (Algorithm 3) with
// the sequential builder, per strategy — the paper's single-threaded cost.
// BenchmarkBuildParallel covers worker-pool scaling.
func BenchmarkTreeBuild(b *testing.B) {
	c := benchCollection(b)
	sub := c.All()
	for _, bc := range []struct {
		name string
		mk   func() strategy.Factory
	}{
		{"infogain", func() strategy.Factory { return strategy.InfoGain{} }},
		{"klp-k2", func() strategy.Factory { return strategy.NewKLP(cost.AD, 2) }},
		{"klple-k3-q10", func() strategy.Factory { return strategy.NewKLPLE(cost.AD, 3, 10) }},
		{"klplve-k3-q10", func() strategy.Factory { return strategy.NewKLPLVE(cost.AD, 3, 10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(sub, bc.mk(), tree.WithParallelism(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscovery measures one online discovery (Algorithm 2) end to end.
func BenchmarkDiscovery(b *testing.B) {
	c := benchCollection(b)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := c.Set(r.Intn(c.Len()))
		res, err := discovery.Run(c, nil, discovery.TargetOracle{Target: target},
			discovery.Options{Strategy: strategy.NewKLP(cost.AD, 2)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Target != target {
			b.Fatal("discovery missed")
		}
	}
}

// BenchmarkPublicAPI measures the facade on the paper's running example.
func BenchmarkPublicAPI(b *testing.B) {
	names, elems := testutil.PaperSets()
	sets := make(map[string][]string, len(names))
	for i, n := range names {
		sets[n] = elems[i]
	}
	c, err := NewCollection(sets)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := c.TargetOracle("S5")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Discover(nil, oracle, WithK(3))
		if err != nil || res.Target != "S5" {
			b.Fatal(err, res)
		}
	}
}
