package tree

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/webtables"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trees under testdata/ from this build")

// goldenSub is one sub-collection the golden trees are built over.
type goldenSub struct {
	name string
	sub  *dataset.Subset
}

// goldenSubCollections returns the sub-collections the golden trees are
// built over. The first three are the first three seed queries of a
// 2,000-set web-tables corpus: their members touch 158–947 entities spread
// over a window of about 64k entity IDs, so the trees pin selection where
// the counted window is far wider than the entities counted. The fourth is
// the whole 80-set synthetic collection, a dense universe where every set
// shares entities with many others.
func goldenSubCollections(t *testing.T) []goldenSub {
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
	subs := make([]goldenSub, 0, 4)
	for i := range 3 {
		subs = append(subs, goldenSub{fmt.Sprintf("webtables-q%d", i),
			c.SupersetsOf([]dataset.Entity{qs[i].A, qs[i].B})})
	}
	return append(subs, goldenSub{"synth80", pooledTestCollection(t).All()})
}

// goldenStrategies are the selection configurations the golden trees pin:
// every built-in strategy — the pruned lookahead under both metrics, its
// one-step special case, the beam variants, the greedy baselines and the
// unpruned gain-k lookahead with and without its memo.
var goldenStrategies = []struct {
	name string
	f    func() strategy.Factory
}{
	{"klp-k2-ad", func() strategy.Factory { return strategy.NewKLP(cost.AD, 2) }},
	{"klp-k2-h", func() strategy.Factory { return strategy.NewKLP(cost.H, 2) }},
	{"lb1", func() strategy.Factory { return strategy.NewKLP(cost.AD, 1) }},
	{"klple-k3-q8", func() strategy.Factory { return strategy.NewKLPLE(cost.AD, 3, 8) }},
	{"most-even", func() strategy.Factory { return strategy.MostEven{} }},
	{"infogain", func() strategy.Factory { return strategy.InfoGain{} }},
	{"indg", func() strategy.Factory { return strategy.Indg{} }},
	{"gaink-2", func() strategy.Factory { return strategy.NewGainK(2) }},
	{"gaink-memo-2", func() strategy.Factory { return strategy.NewGainKMemo(2) }},
	{"klplve-k3-q5", func() strategy.Factory { return strategy.NewKLPLVE(cost.AD, 3, 5) }},
	{"klp-k3-h", func() strategy.Factory { return strategy.NewKLP(cost.H, 3) }},
}

// skipGolden reports the combinations left out of the golden trees: gain-k
// over webtables-q0, whose 945 informative entities make one unpruned
// build take about half a second where every other build takes 15 ms or
// less.
func skipGolden(sub, strat string) bool {
	return sub == "webtables-q0" && strings.HasPrefix(strat, "gaink")
}

// TestGoldenTrees requires every build of the golden configurations, at
// one, two and four workers, to serialize byte for byte to the committed
// tree. A change that alters even one question of one tree fails here.
// Regenerate the files only for a change meant to alter trees:
//
//	go test ./internal/tree/ -run TestGoldenTrees -update
func TestGoldenTrees(t *testing.T) {
	for _, g := range goldenSubCollections(t) {
		for _, s := range goldenStrategies {
			if skipGolden(g.name, s.name) {
				continue
			}
			name := g.name + "-" + s.name
			t.Run(name, func(t *testing.T) {
				path := filepath.Join("testdata", name+".tree")
				for _, workers := range []int{1, 2, 4} {
					tr, err := Build(g.sub, s.f(), WithParallelism(workers))
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
