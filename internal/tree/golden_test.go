package tree

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/webtables"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trees under testdata/ from this build")

// goldenSubCollections returns the web-tables sub-collections the golden
// trees are built over: the first three seed queries of a 2,000-set corpus.
// Their members touch 158–947 entities spread over a window of about 64k
// entity IDs, so the trees pin selection where the counted window is far
// wider than the entities counted.
func goldenSubCollections(t *testing.T) []*dataset.Subset {
	t.Helper()
	p := webtables.DefaultParams()
	p.NumSets = 2000
	c, err := webtables.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	qs := webtables.SeedQueries(c, 60, 8, 1)
	if len(qs) < 3 {
		t.Fatalf("corpus yields %d seed queries, want ≥ 3", len(qs))
	}
	subs := make([]*dataset.Subset, 3)
	for i := range subs {
		subs[i] = c.SupersetsOf([]dataset.Entity{qs[i].A, qs[i].B})
	}
	return subs
}

// goldenStrategies are the selection configurations the golden trees pin:
// the pruned lookahead under both metrics, its one-step special case and
// the beam variant.
var goldenStrategies = []struct {
	name string
	f    func() strategy.Factory
}{
	{"klp-k2-ad", func() strategy.Factory { return strategy.NewKLP(cost.AD, 2) }},
	{"klp-k2-h", func() strategy.Factory { return strategy.NewKLP(cost.H, 2) }},
	{"lb1", func() strategy.Factory { return strategy.NewKLP(cost.AD, 1) }},
	{"klple-k3-q8", func() strategy.Factory { return strategy.NewKLPLE(cost.AD, 3, 8) }},
}

// TestGoldenTrees requires every build of the golden configurations, at
// one and at two workers, to serialize byte for byte to the committed tree.
// A change that alters even one question of one tree fails here, including
// changes the pooled-versus-allocating comparison cannot see because both
// paths share it. Regenerate the files only for a change meant to alter
// trees:
//
//	go test ./internal/tree/ -run TestGoldenTrees -update
func TestGoldenTrees(t *testing.T) {
	subs := goldenSubCollections(t)
	for i, sub := range subs {
		for _, s := range goldenStrategies {
			name := fmt.Sprintf("webtables-q%d-%s", i, s.name)
			t.Run(name, func(t *testing.T) {
				path := filepath.Join("testdata", name+".tree")
				for _, workers := range []int{1, 2} {
					tr, err := Build(sub, s.f(), WithParallelism(workers))
					if err != nil {
						t.Fatal(err)
					}
					got := serializeTree(t, tr)
					if *updateGolden && workers == 1 {
						if err := os.MkdirAll("testdata", 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("workers=%d: tree differs from %s at byte %d (%d bytes, golden %d)",
							workers, path, firstDiff(got, want), len(got), len(want))
					}
				}
			})
		}
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
