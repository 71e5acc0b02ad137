package setdiscovery

import (
	"testing"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/strategy"
)

// TestWithCacheBoundSameResults: a bounded cache changes memory behaviour,
// never selections — discovery under a tight bound finds every target with
// the identical question count.
func TestWithCacheBoundSameResults(t *testing.T) {
	plain := paperCollection(t)
	bounded := paperCollection(t)
	for name := range paperSets() {
		po, err := plain.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		bo, err := bounded.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := plain.Discover(nil, po, WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		bres, err := bounded.Discover(nil, bo, WithK(2), WithCacheBound(64))
		if err != nil {
			t.Fatal(err)
		}
		if pres.Target != bres.Target || pres.Questions != bres.Questions {
			t.Fatalf("target %s: unbounded (%s, %d questions) vs bounded (%s, %d questions)",
				name, pres.Target, pres.Questions, bres.Target, bres.Questions)
		}
	}
}

// TestWithCacheBoundFactoryKeying: the bound is part of the factory cache
// key — configurations with different bounds must not share a factory, and
// equal bounds must. Every spelling of the default bound (none, n ≤ 0, and
// cache.DefaultBound itself) is one bound.
func TestWithCacheBoundFactoryKeying(t *testing.T) {
	c := paperCollection(t)
	get := func(opts ...Option) strategy.Factory {
		cfg := defaultConfig()
		for _, o := range opts {
			o(&cfg)
		}
		f, err := c.factory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	def := get()
	bounded := get(WithCacheBound(128))
	if def == bounded {
		t.Fatal("configs with different bounds share one factory")
	}
	if again := get(WithCacheBound(128)); again != bounded {
		t.Fatal("equal bounded configs do not share a factory")
	}
	for _, n := range []int{0, -1, cache.DefaultBound} {
		if again := get(WithCacheBound(n)); again != def {
			t.Fatalf("WithCacheBound(%d) does not share the default factory", n)
		}
	}
	klp, ok := bounded.(*strategy.KLP)
	if !ok {
		t.Fatalf("default factory is %T, want *strategy.KLP", bounded)
	}
	if klp.CacheStats().Entries > 128 {
		t.Fatalf("bounded factory cache exceeds its bound")
	}
}

// TestWithCacheBoundBuildTree: tree construction under a tight bound stays
// byte-equal in shape (cost and depths) to the unbounded build.
func TestWithCacheBoundBuildTree(t *testing.T) {
	plain := paperCollection(t)
	bounded := paperCollection(t)
	pt, err := plain.BuildTree(WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := bounded.BuildTree(WithK(2), WithCacheBound(64))
	if err != nil {
		t.Fatal(err)
	}
	if pt.AvgDepth() != bt.AvgDepth() || pt.Height() != bt.Height() {
		t.Fatalf("bounded build differs: avg %.3f/%.3f height %d/%d",
			pt.AvgDepth(), bt.AvgDepth(), pt.Height(), bt.Height())
	}
	if pt.Render() != bt.Render() {
		t.Fatal("bounded build renders a different tree")
	}
}
