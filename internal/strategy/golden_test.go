package strategy

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/selections.golden from this build")

const selectionsGolden = "selections.golden"

// goldenSelectionStrategies are the strategies testdata/selections.golden
// pins on every scratchSubs sub-collection. excluding marks the five whose
// SelectExcluding pick is pinned too.
var goldenSelectionStrategies = []struct {
	name      string
	f         func() Factory
	excluding bool
}{
	{"klp-k2", func() Factory { return NewKLP(cost.AD, 2) }, true},
	{"klp-k3-h", func() Factory { return NewKLP(cost.H, 3) }, false},
	{"klple-k3-q5", func() Factory { return NewKLPLE(cost.AD, 3, 5) }, false},
	{"klplve-k3-q5", func() Factory { return NewKLPLVE(cost.AD, 3, 5) }, false},
	{"gaink-2", func() Factory { return NewGainK(2) }, true},
	{"gaink-memo-2", func() Factory { return NewGainKMemo(2) }, false},
	{"most-even", func() Factory { return MostEven{} }, true},
	{"infogain", func() Factory { return InfoGain{} }, true},
	{"indg", func() Factory { return Indg{} }, true},
}

// pick formats one selection result for the golden file.
func pick(e dataset.Entity, ok bool) string {
	if !ok {
		return "none"
	}
	return fmt.Sprint(e)
}

// selectLines returns one pass of sel's Select picks over subs, one golden
// line per sub-collection.
func selectLines(name string, sel Strategy, subs []*dataset.Subset) []string {
	lines := make([]string, len(subs))
	for i, sub := range subs {
		e, ok := sel.Select(sub)
		lines[i] = fmt.Sprintf("%s select sub%d -> %s", name, i, pick(e, ok))
	}
	return lines
}

// excludeLines returns one pass of sel's SelectExcluding picks over the
// sub-collections with an informative entity, the first of them excluded.
// A pick of an excluded entity fails the test.
func excludeLines(t *testing.T, name string, sel Excluder, subs []*dataset.Subset) []string {
	t.Helper()
	var lines []string
	for i, sub := range subs {
		infos := sub.InformativeEntities()
		if len(infos) == 0 {
			continue
		}
		x := infos[0].Entity
		e, ok := sel.SelectExcluding(sub, map[dataset.Entity]bool{x: true})
		if ok && e == x {
			t.Fatalf("%s sub %d proposed the excluded entity %d", name, i, x)
		}
		lines = append(lines, fmt.Sprintf("%s exclude sub%d !%d -> %s", name, i, x, pick(e, ok)))
	}
	return lines
}

// goldenSelections returns the lines of testdata/selections.golden grouped
// by their "<strategy> <kind>" prefix. Under -update it first rewrites the
// file from fresh instances of this build.
func goldenSelections(t *testing.T, subs []*dataset.Subset) map[string][]string {
	t.Helper()
	path := filepath.Join("testdata", selectionsGolden)
	if *updateGolden {
		var all []string
		for _, s := range goldenSelectionStrategies {
			all = append(all, selectLines(s.name, s.f().New(), subs)...)
			if s.excluding {
				all = append(all, excludeLines(t, s.name, s.f().New().(Excluder), subs)...)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string][]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		key := f[0] + " " + f[1]
		golden[key] = append(golden[key], sc.Text())
	}
	return golden
}

// checkLines fails unless got equals the golden lines under key.
func checkLines(t *testing.T, golden map[string][]string, key string, pass int, got []string) {
	t.Helper()
	want := golden[key]
	if len(want) == 0 {
		t.Fatalf("%s has no %q lines", selectionsGolden, key)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pass %d: %s picks differ from %s\ngot:  %q\nwant: %q",
			pass, key, selectionsGolden, got, want)
	}
}
