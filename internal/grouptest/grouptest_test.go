package grouptest

import (
	"fmt"
	"strings"
	"testing"

	"setdiscovery/internal/dataset"
)

func paperCollection(t *testing.T) *dataset.Collection {
	t.Helper()
	c, err := dataset.NewBuilder().
		Add("S1", strings.Split("a b c d", " ")).
		Add("S2", strings.Split("a d e", " ")).
		Add("S3", strings.Split("a b c d f", " ")).
		Add("S4", strings.Split("a b c g h", " ")).
		Add("S5", strings.Split("a b h i", " ")).
		Add("S6", strings.Split("a b j k", " ")).
		Add("S7", strings.Split("a b g", " ")).
		Build()
	if err != nil {
		t.Fatalf("building paper collection: %v", err)
	}
	return c
}

// singletonCollection builds n sets, set i = {marker_i}: the worst case for
// entity questions (each eliminates one candidate) and the best case for
// group questions (any m-subset of markers splits m / n−m).
func singletonCollection(t *testing.T, n int) *dataset.Collection {
	t.Helper()
	b := dataset.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("S%03d", i), []string{fmt.Sprintf("m%03d", i)})
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("building singleton collection: %v", err)
	}
	return c
}

func entity(t *testing.T, c *dataset.Collection, s string) dataset.Entity {
	t.Helper()
	id, ok := c.Dict().Lookup(s)
	if !ok {
		t.Fatalf("entity %q not interned", s)
	}
	return id
}

// answerFor answers a group question truthfully for the target set.
func answerFor(target *dataset.Set, q QuestionSubset) bool {
	if q.Semantics == SubsetOfTarget {
		for _, e := range q.Members {
			if !target.Contains(e) {
				return false
			}
		}
		return true
	}
	for _, e := range q.Members {
		if target.Contains(e) {
			return true
		}
	}
	return false
}

// discover runs the group-question loop to a single candidate, asserting
// every question splits the candidates properly, and returns the question
// count and each asked subset.
func discover(t *testing.T, c *dataset.Collection, strat Strategy, target *dataset.Set) (int, []QuestionSubset) {
	t.Helper()
	sub := c.All()
	questions := 0
	var asked []QuestionSubset
	for sub.Size() > 1 {
		q, ok := strat.SelectSubset(sub, nil)
		if !ok {
			t.Fatalf("no question with %d candidates left", sub.Size())
		}
		if len(q.Members) == 0 {
			t.Fatal("strategy emitted an empty subset")
		}
		yes, no := sub.PartitionGroup(q.Members, q.Semantics == SubsetOfTarget)
		if yes.Size() == 0 || no.Size() == 0 {
			t.Fatalf("question %v (%s) does not split: %d/%d",
				q.Members, q.Semantics, yes.Size(), no.Size())
		}
		if answerFor(target, q) {
			sub = yes
		} else {
			sub = no
		}
		questions++
		asked = append(asked, q)
		if questions > 10*c.Len() {
			t.Fatalf("no convergence after %d questions", questions)
		}
	}
	if got := sub.Single(); got != target {
		t.Fatalf("discovered %v, want target", got.Name)
	}
	return questions, asked
}

func TestHalvingLogRoundsOnSingletons(t *testing.T) {
	c := singletonCollection(t, 64)
	strat := Halving{}.New()
	for i := 0; i < c.Len(); i++ {
		n, _ := discover(t, c, strat, c.Set(i))
		if n > 6 { // ⌈log₂ 64⌉
			t.Fatalf("target %d took %d questions, want ≤ 6", i, n)
		}
	}
}

func TestHalvingPaperCollectionAllTargets(t *testing.T) {
	c := paperCollection(t)
	strat := Halving{}.New()
	for i := 0; i < c.Len(); i++ {
		if n, _ := discover(t, c, strat, c.Set(i)); n > 4 {
			t.Errorf("target %s took %d questions, want ≤ 4", c.Set(i).Name, n)
		}
	}
}

func TestHalvingDeterministic(t *testing.T) {
	c := paperCollection(t)
	a, _ := Halving{}.New().SelectSubset(c.All(), nil)
	b, _ := Halving{}.New().SelectSubset(c.All(), nil)
	if a.Semantics != b.Semantics || len(a.Members) != len(b.Members) {
		t.Fatalf("selection not deterministic: %v vs %v", a, b)
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a.Members, b.Members)
		}
	}
}

func TestHalvingHonoursExclusions(t *testing.T) {
	c := singletonCollection(t, 8)
	strat := Halving{}.New()
	excluded := map[dataset.Entity]bool{
		entity(t, c, "m000"): true,
		entity(t, c, "m001"): true,
	}
	q, ok := strat.SelectSubset(c.All(), excluded)
	if !ok {
		t.Fatal("no selection with exclusions")
	}
	for _, e := range q.Members {
		if excluded[e] {
			t.Fatalf("excluded entity %d proposed", e)
		}
	}
	// Excluding everything informative leaves no question.
	all := map[dataset.Entity]bool{}
	for i := 0; i < 8; i++ {
		all[entity(t, c, fmt.Sprintf("m%03d", i))] = true
	}
	if _, ok := strat.SelectSubset(c.All(), all); ok {
		t.Fatal("selection succeeded with every entity excluded")
	}
}

// culpritCollection builds candidates over entities a..h: every
// dependency-closed subset of size ≤ 3 under "a implies b". The target is
// {a,b,c} — k=3 culprits with one dependency edge among them.
func culpritCollection(t *testing.T) (*dataset.Collection, *dataset.Set) {
	t.Helper()
	universe := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := dataset.NewBuilder()
	var subsets [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) > 0 {
			subsets = append(subsets, append([]string(nil), cur...))
		}
		if len(cur) == 3 {
			return
		}
		for i := start; i < len(universe); i++ {
			rec(i+1, append(cur, universe[i]))
		}
	}
	rec(0, nil)
	for _, s := range subsets {
		hasA, hasB := false, false
		for _, e := range s {
			hasA = hasA || e == "a"
			hasB = hasB || e == "b"
		}
		if hasA && !hasB {
			continue // not closed under a→b
		}
		b.Add("C"+strings.Join(s, ""), s)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("building culprit collection: %v", err)
	}
	target := c.FindByName("Cabc")
	if target == nil {
		t.Fatal("target Cabc missing")
	}
	return c, target
}

func TestAdditiveMultiCulpritWithConstraints(t *testing.T) {
	c, target := culpritCollection(t)
	a, bb := entity(t, c, "a"), entity(t, c, "b")
	f, err := New("additive", []Constraint{{If: a, Then: bb}})
	if err != nil {
		t.Fatal(err)
	}
	n, asked := discover(t, c, f.New(), target)
	t.Logf("additive found %s in %d questions over %d candidates", target.Name, n, c.Len())
	// Every intersects probe must keep the implied enabled set closed:
	// disabling b (probing it) while a is undetermined must disable a too.
	sub := c.All()
	for _, q := range asked {
		if q.Semantics == Intersects {
			inProbe := map[dataset.Entity]bool{}
			for _, e := range q.Members {
				inProbe[e] = true
			}
			if inProbe[bb] && !inProbe[a] {
				informative := false
				for _, ec := range sub.InformativeEntities() {
					if ec.Entity == a {
						informative = true
					}
				}
				if informative {
					t.Fatalf("probe %v disables b but not undetermined a", q.Members)
				}
			}
		}
		yes, no := sub.PartitionGroup(q.Members, q.Semantics == SubsetOfTarget)
		if answerFor(target, q) {
			sub = yes
		} else {
			sub = no
		}
	}
}

func TestAdditiveConvergesAllTargets(t *testing.T) {
	c, _ := culpritCollection(t)
	f, err := New("additive", nil)
	if err != nil {
		t.Fatal(err)
	}
	strat := f.New()
	for i := 0; i < c.Len(); i++ {
		discover(t, c, strat, c.Set(i))
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"halving", "Halving", "additive", "ADDITIVE"} {
		f, err := New(name, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if f.New() == nil {
			t.Fatalf("New(%q).New() = nil", name)
		}
	}
	if _, err := New("bogus", nil); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSemanticsStrings(t *testing.T) {
	for _, s := range []Semantics{Intersects, SubsetOfTarget} {
		got, err := ParseSemantics(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSemantics(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSemantics("sideways"); err == nil {
		t.Fatal("bad semantics accepted")
	}
}
