package strategy

import (
	"fmt"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/synth"
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

// TestScratchSelectionsMatchUnpooled pins the tentpole equivalence at the
// strategy layer: for every strategy, a scratch-carrying sibling minted by
// New selects exactly what the allocating reference path selects, on every
// sub-collection, in repeated passes over warm scratch state.
func TestScratchSelectionsMatchUnpooled(t *testing.T) {
	subs := scratchSubs(t)
	factories := []struct {
		name             string
		pooled, unpooled Factory
	}{
		{"klp-k2", NewKLP(cost.AD, 2), NewKLP(cost.AD, 2).DisableScratch()},
		{"klp-k3-h", NewKLP(cost.H, 3), NewKLP(cost.H, 3).DisableScratch()},
		{"klple-k3-q5", NewKLPLE(cost.AD, 3, 5), NewKLPLE(cost.AD, 3, 5).DisableScratch()},
		{"klplve-k3-q5", NewKLPLVE(cost.AD, 3, 5), NewKLPLVE(cost.AD, 3, 5).DisableScratch()},
		{"gaink-2", NewGainK(2), NewGainK(2).DisableScratch()},
		{"gaink-memo-2", NewGainKMemo(2), NewGainKMemo(2).DisableScratch()},
		{"most-even", MostEven{}, MostEven{}},
		{"infogain", InfoGain{}, InfoGain{}},
		{"indg", Indg{}, Indg{}},
	}
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			pooled := f.pooled.New()
			for pass := 0; pass < 2; pass++ {
				// Unpooled reference minted fresh each pass so its caches
				// cannot mask a divergence the pooled instance introduces.
				unpooled := f.unpooled.New()
				for i, sub := range subs {
					pe, pok := pooled.Select(sub)
					ue, uok := unpooled.Select(sub)
					if pe != ue || pok != uok {
						t.Fatalf("pass %d sub %d: pooled (%d,%v) != unpooled (%d,%v)",
							pass, i, pe, pok, ue, uok)
					}
				}
			}
		})
	}
}

// TestScratchSelectExcludingMatches runs the exclusion path over warm
// scratch state for the strategies that implement Excluder.
func TestScratchSelectExcludingMatches(t *testing.T) {
	subs := scratchSubs(t)
	mk := func() []Excluder {
		return []Excluder{
			NewKLP(cost.AD, 2).New().(*KLP),
			NewGainK(2).New().(*GainK),
			MostEven{}.New().(Excluder),
			InfoGain{}.New().(Excluder),
			Indg{}.New().(Excluder),
		}
	}
	pooled := mk()
	for i, sub := range subs {
		infos := sub.InformativeEntities()
		if len(infos) == 0 {
			continue
		}
		excluded := map[dataset.Entity]bool{infos[0].Entity: true}
		for j, p := range pooled {
			pe, pok := p.SelectExcluding(sub, excluded)
			if pok && excluded[pe] {
				t.Fatalf("strategy %d sub %d proposed an excluded entity", j, i)
			}
			// Unpooled references are stateless per call.
			var ue dataset.Entity
			var uok bool
			switch r := p.(type) {
			case *KLP:
				ue, uok = NewKLP(r.Metric(), r.K()).SelectExcluding(sub, excluded)
			case *GainK:
				ue, uok = NewGainK(2).SelectExcluding(sub, excluded)
			case MostEven:
				ue, uok = MostEven{}.SelectExcluding(sub, excluded)
			case InfoGain:
				ue, uok = InfoGain{}.SelectExcluding(sub, excluded)
			case Indg:
				ue, uok = Indg{}.SelectExcluding(sub, excluded)
			}
			if pe != ue || pok != uok {
				t.Fatalf("strategy %d sub %d: pooled (%d,%v) != unpooled (%d,%v)", j, i, pe, pok, ue, uok)
			}
		}
	}
}

// TestBoundedCacheSameSelections: a factory with a tight cache bound must
// select exactly what the unbounded factory selects (evictions recompute,
// never corrupt).
func TestBoundedCacheSameSelections(t *testing.T) {
	subs := scratchSubs(t)
	unbounded := NewKLP(cost.AD, 3)
	bounded := NewKLP(cost.AD, 3)
	bounded.SetCacheBound(64) // 1 entry per shard: heavy eviction
	us, bs := unbounded.New(), bounded.New()
	for pass := 0; pass < 2; pass++ {
		for i, sub := range subs {
			ue, uok := us.Select(sub)
			be, bok := bs.Select(sub)
			if ue != be || uok != bok {
				t.Fatalf("pass %d sub %d: unbounded (%d,%v) != bounded (%d,%v)", pass, i, ue, uok, be, bok)
			}
		}
	}
	if got := bounded.CacheStats().Entries; got > 64 {
		t.Fatalf("bounded cache holds %d entries, bound 64", got)
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

// TestFactoriesMintIndependentScratches: siblings must not share scratch
// state (they may share caches only).
func TestFactoriesMintIndependentScratches(t *testing.T) {
	f := NewKLP(cost.AD, 2)
	a := f.New().(*KLP)
	b := f.New().(*KLP)
	if a.scratch.sc == nil || b.scratch.sc == nil {
		t.Fatal("minted siblings lack scratch state")
	}
	if a.scratch.sc == b.scratch.sc {
		t.Fatal("siblings share one scratch — unsafe for concurrent workers")
	}
	if a.cache != b.cache {
		t.Fatal("siblings do not share the lookahead cache")
	}
	for i, fac := range []Factory{MostEven{}, InfoGain{}, Indg{}, NewGainK(2)} {
		x := fac.New()
		y := fac.New()
		sx, sy := scratchOf(x), scratchOf(y)
		if sx == nil || sy == nil {
			t.Fatalf("factory %d: minted instance lacks scratch", i)
		}
		if sx == sy {
			t.Fatalf("factory %d: siblings share one scratch", i)
		}
	}
}

// scratchOf digs the dataset scratch out of any built-in strategy instance.
func scratchOf(s Strategy) *dataset.Scratch {
	switch v := s.(type) {
	case *KLP:
		return v.scratch.sc
	case *GainK:
		return v.scratch.sc
	case MostEven:
		return v.sc
	case InfoGain:
		return v.sc
	case Indg:
		return v.sc
	default:
		panic(fmt.Sprintf("unknown strategy %T", s))
	}
}
