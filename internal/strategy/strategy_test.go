package strategy

import (
	"slices"
	"testing"
	"testing/quick"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/testutil"
)

func TestRegistryKnownNames(t *testing.T) {
	for _, name := range []string{
		"most-even", "infogain", "indg", "lb1",
		"klp", "klple", "klplve", "gaink", "gaink-memo",
	} {
		s, err := New(name, cost.AD, 2, 5)
		if err != nil {
			t.Errorf("New(%q) error: %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("New(%q) has empty Name", name)
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := New("nope", cost.AD, 2, 5); err == nil {
		t.Fatal("unknown strategy name accepted")
	}
}

func TestMostEvenOnPaperCollection(t *testing.T) {
	c := testutil.PaperCollection()
	e, ok := MostEven{}.Select(c.All())
	if !ok {
		t.Fatal("MostEven found nothing")
	}
	// c and d both split 3/4 (the most even options); c has the smaller ID.
	if got := c.EntityName(e); got != "c" {
		t.Errorf("MostEven selected %q, want c", got)
	}
}

func TestGreedyStrategiesSkipUninformative(t *testing.T) {
	c := testutil.PaperCollection()
	a := testutil.Entity(c, "a") // in all sets
	for _, s := range []Strategy{MostEven{}, InfoGain{}, Indg{}} {
		e, ok := s.Select(c.All())
		if !ok {
			t.Fatalf("%s found nothing", s.Name())
		}
		if e == a {
			t.Errorf("%s selected the uninformative entity a", s.Name())
		}
	}
}

func TestSelectOnSingleton(t *testing.T) {
	c := testutil.PaperCollection()
	single := c.SubsetOf([]uint32{2})
	strategies := []Strategy{MostEven{}, InfoGain{}, Indg{},
		NewKLP(cost.AD, 2), NewGainK(2)}
	for _, s := range strategies {
		if _, ok := s.Select(single); ok {
			t.Errorf("%s selected an entity for a singleton", s.Name())
		}
	}
}

// Lemma 4.3: information gain, indistinguishable pairs and most-even
// partitioning select identically (all reduce to the most even split).
func TestLemma43GreedyEquivalence(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(25), 2+r.Intn(12))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		me, ok1 := MostEven{}.Select(sub)
		ig, ok2 := InfoGain{}.Select(sub)
		id, ok3 := Indg{}.Select(sub)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("trial %d: a greedy strategy found nothing for %d sets", trial, sub.Size())
		}
		// The selected entities may differ under ties, but the induced
		// split must be equally even — the quantity all three minimise.
		n := sub.Size()
		u1 := abs(2*sub.CountWith(me) - n)
		u2 := abs(2*sub.CountWith(ig) - n)
		u3 := abs(2*sub.CountWith(id) - n)
		if u1 != u2 || u2 != u3 {
			t.Errorf("trial %d: unevenness differs: most-even=%d infogain=%d indg=%d",
				trial, u1, u2, u3)
		}
	}
}

// gain-1 and InfoGain must agree on the split evenness as well (both are
// 1-step information gain).
func TestGain1MatchesInfoGain(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 100; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(20), 2+r.Intn(10))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		g, ok1 := NewGainK(1).Select(sub)
		ig, ok2 := InfoGain{}.Select(sub)
		if !ok1 || !ok2 {
			t.Fatal("selection failed")
		}
		n := sub.Size()
		if abs(2*sub.CountWith(g)-n) != abs(2*sub.CountWith(ig)-n) {
			t.Errorf("trial %d: gain-1 and InfoGain pick differently even splits", trial)
		}
	}
}

func TestKLPSelectsDOnPaperCollectionH(t *testing.T) {
	// §4.3 example: under H with 3-step lookahead, d has LB_H3 = 3 while all
	// other entities bound to ≥ 3 with 1 step; c also achieves 3 but d's
	// subtree actually realises it. k-LP must pick an entity with LB3 = 3.
	c := testutil.PaperCollection()
	s := NewKLP(cost.H, 3)
	e, lb, found := s.LowerBound(c.All())
	if !found {
		t.Fatal("k-LP found nothing")
	}
	if lb != 3 {
		t.Errorf("LB_H3 = %d, want 3", lb)
	}
	name := c.EntityName(e)
	if name != "c" && name != "d" {
		t.Errorf("k-LP(H,3) selected %q, want c or d", name)
	}
}

func TestKLPLowerBoundMatchesPaperADExample(t *testing.T) {
	// The optimal tree for the paper collection has AD = 20/7 (Fig 2a).
	// With k ≥ optimal height (3), LBk must reach the exact optimum.
	c := testutil.PaperCollection()
	s := NewKLP(cost.AD, 3)
	_, lb, found := s.LowerBound(c.All())
	if !found {
		t.Fatal("k-LP found nothing")
	}
	if lb != 20 {
		t.Errorf("LB_AD3 scaled = %d, want 20 (AD 2.857)", lb)
	}
}

// Lemma 4.1: LBk(C) is monotone non-decreasing in k.
func TestLemma41Monotonicity(t *testing.T) {
	r := rng.New(99)
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		for trial := 0; trial < 40; trial++ {
			c := testutil.RandomCollection(r, 2+r.Intn(14), 2+r.Intn(8))
			sub := c.All()
			if sub.Size() < 2 {
				continue
			}
			prev := cost.Value(-1)
			for k := 1; k <= 5; k++ {
				_, lb, found := NewKLP(m, k).LowerBound(sub)
				if !found {
					t.Fatalf("metric %v trial %d k=%d: nothing found", m, trial, k)
				}
				if lb < prev {
					t.Errorf("metric %v trial %d: LB%d=%d < LB%d=%d",
						m, trial, k, lb, k-1, prev)
				}
				prev = lb
			}
		}
	}
}

// Pruning safety (Lemma 4.4): disabling either pruning site must not change
// the computed k-step lower bound.
func TestPruningSafety(t *testing.T) {
	r := rng.New(4242)
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		for trial := 0; trial < 60; trial++ {
			c := testutil.RandomCollection(r, 2+r.Intn(16), 2+r.Intn(9))
			sub := c.All()
			if sub.Size() < 2 {
				continue
			}
			k := 1 + r.Intn(3)
			_, pruned, ok1 := NewKLP(m, k).LowerBound(sub)
			_, noSort, ok2 := NewKLP(m, k).DisableSortPrune().LowerBound(sub)
			_, noUL, ok3 := NewKLP(m, k).DisableULPrune().LowerBound(sub)
			_, none, ok4 := NewKLP(m, k).DisableSortPrune().DisableULPrune().LowerBound(sub)
			if !ok1 || !ok2 || !ok3 || !ok4 {
				t.Fatalf("metric %v trial %d: a variant found nothing", m, trial)
			}
			if pruned != none || noSort != none || noUL != none {
				t.Errorf("metric %v trial %d k=%d: bounds differ: pruned=%d noSort=%d noUL=%d none=%d",
					m, trial, k, pruned, noSort, noUL, none)
			}
		}
	}
}

// The selected entity must also agree between pruned and unpruned runs
// (identical deterministic tie-breaking).
func TestPruningPreservesSelection(t *testing.T) {
	r := rng.New(555)
	for trial := 0; trial < 60; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(16), 2+r.Intn(9))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		k := 1 + r.Intn(3)
		e1, ok1 := NewKLP(cost.AD, k).Select(sub)
		e2, ok2 := NewKLP(cost.AD, k).DisableSortPrune().DisableULPrune().Select(sub)
		if !ok1 || !ok2 {
			t.Fatal("selection failed")
		}
		if e1 != e2 {
			t.Errorf("trial %d k=%d: pruned selects %d, unpruned %d", trial, k, e1, e2)
		}
	}
}

func TestKLPLEWithHugeQEqualsKLP(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(14), 2+r.Intn(8))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		e1, ok1 := NewKLP(cost.AD, 2).Select(sub)
		e2, ok2 := NewKLPLE(cost.AD, 2, 1<<20).Select(sub)
		if ok1 != ok2 || e1 != e2 {
			t.Errorf("trial %d: k-LPLE(q=∞) diverged from k-LP", trial)
		}
	}
}

func TestKLPLVERuns(t *testing.T) {
	c := testutil.PaperCollection()
	s := NewKLPLVE(cost.AD, 3, 2)
	if _, ok := s.Select(c.All()); !ok {
		t.Fatal("k-LPLVE found nothing on the paper collection")
	}
}

func TestKLPK1IsLB1Selection(t *testing.T) {
	// k=1 must select the minimum-LB1 entity.
	c := testutil.PaperCollection()
	sub := c.All()
	e, lb, found := NewKLP(cost.H, 1).LowerBound(sub)
	if !found {
		t.Fatal("nothing found")
	}
	if lb != 3 {
		t.Errorf("LB_H1 = %d, want 3 (split 3/4)", lb)
	}
	if n := sub.CountWith(e); n != 3 && n != 4 {
		t.Errorf("k=1 selected a %d/%d split", n, sub.Size()-n)
	}
}

func TestInstrumentationRecordsNodes(t *testing.T) {
	c := testutil.PaperCollection()
	rec := &Recorder{}
	s := NewKLP(cost.AD, 2).Instrument(rec)
	if _, ok := s.Select(c.All()); !ok {
		t.Fatal("selection failed")
	}
	if len(rec.Nodes) != 1 {
		t.Fatalf("recorded %d nodes, want 1", len(rec.Nodes))
	}
	ns := rec.Nodes[0]
	if ns.Candidates != 10 {
		t.Errorf("Candidates = %d, want 10 informative entities", ns.Candidates)
	}
	if ns.Evaluated+ns.AbortedUL+ns.PrunedSort != ns.Candidates {
		t.Errorf("stats do not add up: %+v", ns)
	}
	if f := ns.PrunedFraction(); f < 0 || f > 1 {
		t.Errorf("PrunedFraction = %f", f)
	}
	rec.Reset()
	if len(rec.Nodes) != 0 {
		t.Error("Reset did not clear nodes")
	}
}

func TestRecorderAggregates(t *testing.T) {
	r := &Recorder{Nodes: []NodeStats{
		{Candidates: 10, Evaluated: 1},
		{Candidates: 10, Evaluated: 5},
	}}
	if got := r.AvgPrunedFraction(); got != 0.7 {
		t.Errorf("AvgPrunedFraction = %f, want 0.7", got)
	}
	if got := r.MinPrunedFraction(); got != 0.5 {
		t.Errorf("MinPrunedFraction = %f, want 0.5", got)
	}
	empty := &Recorder{}
	if empty.AvgPrunedFraction() != 0 || empty.MinPrunedFraction() != 0 {
		t.Error("empty recorder aggregates not 0")
	}
}

func TestCacheReuseIsConsistent(t *testing.T) {
	// Using one KLP across multiple Selects (as tree construction does)
	// must give the same entities as fresh instances per call.
	c := testutil.PaperCollection()
	shared := NewKLP(cost.AD, 2)
	sub := c.All()
	for step := 0; sub.Size() > 1 && step < 10; step++ {
		eShared, ok1 := shared.Select(sub)
		eFresh, ok2 := NewKLP(cost.AD, 2).Select(sub)
		if !ok1 || !ok2 || eShared != eFresh {
			t.Fatalf("step %d: shared=%d(%v) fresh=%d(%v)", step, eShared, ok1, eFresh, ok2)
		}
		with, _ := sub.Partition(eShared)
		sub = with
	}
}

func TestResetCache(t *testing.T) {
	c := testutil.PaperCollection()
	s := NewKLP(cost.AD, 2)
	s.Select(c.All())
	if s.CacheStats().Entries == 0 {
		t.Fatal("cache empty after Select")
	}
	s.ResetCache()
	if s.CacheStats().Entries != 0 {
		t.Error("ResetCache left entries")
	}
}

func TestGainKMemoMatchesPlain(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		c := testutil.RandomCollection(r, 2+r.Intn(12), 2+r.Intn(8))
		sub := c.All()
		if sub.Size() < 2 {
			continue
		}
		e1, ok1 := NewGainK(2).Select(sub)
		e2, ok2 := NewGainKMemo(2).Select(sub)
		if ok1 != ok2 || e1 != e2 {
			t.Errorf("trial %d: memoised gain-k diverged", trial)
		}
	}
}

func TestGainKCountsEvaluations(t *testing.T) {
	c := testutil.PaperCollection()
	g := NewGainK(2)
	g.Select(c.All())
	if g.Evaluations == 0 {
		t.Error("gain-k recorded no evaluations")
	}
}

func TestNewKLPPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewKLP(m, 0) did not panic")
		}
	}()
	NewKLP(cost.AD, 0)
}

func TestNewKLPLEPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewKLPLE(m, 2, 0) did not panic")
		}
	}()
	NewKLPLE(cost.AD, 2, 0)
}

// Property: the k-step lower bound never exceeds the cost of any real tree,
// here approximated by the greedy most-even tree's cost computed by hand.
func TestQuickLowerBoundBelowGreedyCost(t *testing.T) {
	r := rng.New(3131)
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		c := testutil.RandomCollection(rr, 2+rr.Intn(12), 2+rr.Intn(8))
		sub := c.All()
		if sub.Size() < 2 {
			return true
		}
		for _, m := range []cost.Metric{cost.AD, cost.H} {
			_, lb, found := NewKLP(m, 3).LowerBound(sub)
			if !found {
				return false
			}
			if lb < cost.LB0(m, sub.Size()) {
				return false
			}
			if greedy := greedyScaledCost(sub, m); lb > greedy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// greedyScaledCost builds a most-even tree and returns its scaled cost.
func greedyScaledCost(sub *dataset.Subset, m cost.Metric) cost.Value {
	if sub.Size() <= 1 {
		return 0
	}
	e, ok := MostEven{}.Select(sub)
	if !ok {
		panic("greedy: no entity")
	}
	with, without := sub.Partition(e)
	return cost.Combine(m, with.Size(), greedyScaledCost(with, m),
		without.Size(), greedyScaledCost(without, m))
}

// TestMinByLB1MatchesSortedFirst pins k-LP's one-step pick: exclusions are
// dropped first, into a buffer of their own, and the single-pass minimum
// over the rest must be the first candidate sortByLB1 leaves after
// exclusions, over random informative lists in entity order whose splits
// share their smaller side and tie on LB1 often, so every key of the order
// decides some cases, under both metrics.
func TestMinByLB1MatchesSortedFirst(t *testing.T) {
	// Exclusions are checked through a view's GlobalEntity; on a subset
	// that is not a view it maps every entity to itself.
	ident, err := dataset.FromIDSets([]string{"a"}, [][]dataset.Entity{{0}}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		w, _ := newScratchList(m).Get(0)
		for trial := 0; trial < 2000; trial++ {
			n := 2 + r.Intn(12)
			w.growLB0(n)
			list := randomList(r, n, 1+r.Intn(40))
			var excluded map[dataset.Entity]bool
			if trial%2 == 1 {
				excluded = make(map[dataset.Entity]bool)
				share := r.Intn(4) // 0 excludes nothing, 3 can exclude everything
				for _, ec := range list {
					if r.Intn(3) < share {
						excluded[ec.Entity] = true
					}
				}
			}
			whole := slices.Clone(list)
			allowed := w.dropExcluded(list, ident.All(), excluded)
			before := slices.Clone(allowed)
			got, ok := w.minByLB1(allowed, n)
			if !slices.Equal(list, whole) || !slices.Equal(allowed, before) {
				t.Fatalf("metric %v trial %d: dropExcluded or minByLB1 changed its input", m, trial)
			}

			sorted := candidates(m, list, n)
			sortByLB1(sorted)
			var kept []candidate
			for _, c := range sorted {
				if !excluded[c.entity] {
					kept = append(kept, c)
				}
			}
			if ok != (len(kept) > 0) {
				t.Fatalf("metric %v trial %d: ok = %v with %d candidates left after exclusions", m, trial, ok, len(kept))
			}
			if ok && got != kept[0] {
				t.Fatalf("metric %v trial %d (n=%d): minByLB1 = %+v, sortByLB1 first = %+v", m, trial, n, got, kept[0])
			}
		}
	}
}

// sortByLB1 is the reference candidate order: a comparison sort by cmpLB1,
// which orderByLB1's counting sort must reproduce.
func sortByLB1(cands []candidate) {
	slices.SortFunc(cands, cmpLB1)
}

// randomList returns count informative entities of a node of n sets, with
// distinct entity IDs drawn from 0..3·count−1, in entity order. Each
// count is drawn as a smaller side h and then put on either side of the
// split, so h-groups hold several entities on both sides.
func randomList(r *rng.RNG, n, count int) []dataset.EntityCount {
	ids := r.Perm(3 * count)[:count]
	slices.Sort(ids)
	list := make([]dataset.EntityCount, count)
	for i, id := range ids {
		c := 1 + r.Intn(n/2)
		if r.Intn(2) == 0 {
			c = n - c
		}
		list[i] = dataset.EntityCount{Entity: dataset.Entity(id), Count: c}
	}
	return list
}

// candidates returns the candidates of list, a list of a node of n sets,
// with their split statistics computed from cost.LB1, in list's order.
func candidates(m cost.Metric, list []dataset.EntityCount, n int) []candidate {
	cands := make([]candidate, len(list))
	for i, ec := range list {
		cands[i] = candidate{entity: ec.Entity, lb1: cost.LB1(m, ec.Count, n-ec.Count), uneven: abs(2*ec.Count - n)}
	}
	return cands
}

// TestLB0TableMatchesCost: the scratch's ⌈n·log2 n⌉ table equals cost.LB0
// for both metrics at every n below 2^16, as it grows from a 64-set root to
// a 1,500-set one and on to the largest.
func TestLB0TableMatchesCost(t *testing.T) {
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		w, _ := newScratchList(m).Get(0)
		largest := 0
		for _, n := range []int{64, 1500, 10, 1<<16 - 1} {
			w.growLB0(n)
			largest = max(largest, n)
			if len(w.lb0) != largest+1 {
				t.Fatalf("metric %v: after growing to %d the table has %d entries, want %d", m, n, len(w.lb0), largest+1)
			}
			for i, v := range w.lb0 {
				if want := cost.LB0(m, i); v != want {
					t.Fatalf("metric %v, grown to %d: lb0[%d] = %d, want %d", m, n, i, v, want)
				}
			}
		}
	}
}

// TestCountingOrderMatchesSortByLB1: orderByLB1's counting sort reproduces
// sortByLB1 on random informative lists in entity order, under both
// metrics, for odd and even node sizes, with both sides c and n−c of a
// split drawn so that h-groups hold several candidates and distinct groups
// tie on LB1, and it leaves the list itself in entity order.
func TestCountingOrderMatchesSortByLB1(t *testing.T) {
	r := rng.New(41)
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		w, _ := newScratchList(m).Get(0)
		for trial := 0; trial < 2000; trial++ {
			n := 2 + r.Intn(80)
			w.growLB0(n)
			list := randomList(r, n, 1+r.Intn(40))
			whole := slices.Clone(list)
			want := candidates(m, list, n)
			sortByLB1(want)
			got := w.orderByLB1(trial%3, list, n)
			if !slices.Equal(got, want) {
				t.Fatalf("metric %v trial %d (n=%d): counting order differs\ngot  %+v\nwant %+v", m, trial, n, got, want)
			}
			if !slices.Equal(list, whole) {
				t.Fatalf("metric %v trial %d: orderByLB1 reordered its input", m, trial)
			}
		}
	}
}
