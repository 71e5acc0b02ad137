package experiments

import (
	"testing"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
)

// TestFig8StrategiesAllocationFree: every Figure 8 strategy, warmed by one
// Select and one SelectExcluding, selects again without allocating, so
// Figure 8(b) times the allocation-free path engines serve rather than a
// constructor value's.
func TestFig8StrategiesAllocationFree(t *testing.T) {
	c, err := synth.Generate(synth.Params{N: 60, SizeMin: 8, SizeMax: 14, Alpha: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sub := c.All()
	infos := sub.InformativeEntities()
	if len(infos) == 0 {
		t.Fatal("fixture has no informative entity")
	}
	excluded := map[dataset.Entity]bool{infos[0].Entity: true}
	names, mks := fig8Strategies()
	for i, mk := range mks {
		sel := mk().(strategy.Excluder)
		run := func() {
			if _, ok := sel.Select(sub); !ok {
				t.Fatalf("%s: Select found nothing", names[i])
			}
			if _, ok := sel.SelectExcluding(sub, excluded); !ok {
				t.Fatalf("%s: SelectExcluding found nothing", names[i])
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: warm Select+SelectExcluding: %.1f allocs/op, want 0", names[i], allocs)
		}
	}
}
