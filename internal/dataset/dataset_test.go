package dataset

import (
	"errors"
	"strings"
	"testing"
)

// paperCollection builds the 7-set example collection of Fig. 1.
func paperCollection(t *testing.T) *Collection {
	t.Helper()
	c, err := NewBuilder().
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

func entity(t *testing.T, c *Collection, s string) Entity {
	t.Helper()
	id, ok := c.Dict().Lookup(s)
	if !ok {
		t.Fatalf("entity %q not interned", s)
	}
	return id
}

func TestBuildPaperCollection(t *testing.T) {
	c := paperCollection(t)
	if c.Len() != 7 {
		t.Fatalf("Len() = %d, want 7", c.Len())
	}
	if got := c.DistinctEntities(); got != 11 {
		t.Errorf("DistinctEntities() = %d, want 11 (a..k)", got)
	}
	s1 := c.FindByName("S1")
	if s1 == nil || s1.Len() != 4 {
		t.Fatalf("S1 = %+v", s1)
	}
	if !s1.Contains(entity(t, c, "a")) || s1.Contains(entity(t, c, "e")) {
		t.Error("S1 membership wrong")
	}
}

func TestBuildRejectsEmptySet(t *testing.T) {
	_, err := NewBuilder().Add("empty", nil).Build()
	if err == nil {
		t.Fatal("Build accepted an empty set")
	}
}

func TestBuildRejectsEmptyCollection(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("Build accepted an empty collection")
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	_, err := NewBuilder().
		Add("A", []string{"x", "y"}).
		Add("B", []string{"y", "x"}). // same set, different order
		Build()
	if !errors.Is(err, ErrDuplicateSet) {
		t.Fatalf("err = %v, want ErrDuplicateSet", err)
	}
}

func TestDropDuplicatesKeepsFirst(t *testing.T) {
	c, err := NewBuilder().DropDuplicates().
		Add("A", []string{"x", "y"}).
		Add("B", []string{"y", "x"}).
		Add("C", []string{"z"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
	if c.Set(0).Name != "A" || c.Set(1).Name != "C" {
		t.Errorf("kept %q, %q; want A, C", c.Set(0).Name, c.Set(1).Name)
	}
}

func TestDuplicateElementsWithinSetMerged(t *testing.T) {
	c, err := NewBuilder().Add("A", []string{"x", "x", "y"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Set(0).Len(); got != 2 {
		t.Errorf("set size = %d, want 2", got)
	}
}

func TestPostings(t *testing.T) {
	c := paperCollection(t)
	a := entity(t, c, "a")
	if got := len(c.Postings(a)); got != 7 {
		t.Errorf("postings(a) = %d sets, want 7", got)
	}
	d := entity(t, c, "d")
	p := c.Postings(d)
	if len(p) != 3 {
		t.Fatalf("postings(d) = %v, want 3 sets", p)
	}
	for _, idx := range p {
		name := c.Set(int(idx)).Name
		if name != "S1" && name != "S2" && name != "S3" {
			t.Errorf("postings(d) includes %s", name)
		}
	}
	if got := c.Postings(Entity(9999)); got != nil {
		t.Errorf("postings of unknown entity = %v", got)
	}
}

func TestStats(t *testing.T) {
	c := paperCollection(t)
	st := c.Stats()
	if st.Sets != 7 || st.DistinctEntities != 11 {
		t.Errorf("Stats = %+v", st)
	}
	if st.MinSize != 3 || st.MaxSize != 5 {
		t.Errorf("sizes: min=%d max=%d, want 3/5", st.MinSize, st.MaxSize)
	}
	if st.TotalElements != 4+3+5+5+4+4+3 {
		t.Errorf("TotalElements = %d", st.TotalElements)
	}
}

func TestSupersetsOf(t *testing.T) {
	c := paperCollection(t)
	b, cEnt := entity(t, c, "b"), entity(t, c, "c")
	sub := c.SupersetsOf([]Entity{b, cEnt})
	got := sub.Names()
	want := map[string]bool{"S1": true, "S3": true, "S4": true}
	if len(got) != len(want) {
		t.Fatalf("SupersetsOf(b,c) = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected member %s", n)
		}
	}
}

func TestSupersetsOfEmptyInitialIsAll(t *testing.T) {
	c := paperCollection(t)
	if got := c.SupersetsOf(nil).Size(); got != 7 {
		t.Errorf("SupersetsOf(nil).Size() = %d, want 7", got)
	}
}

func TestSupersetsOfImpossible(t *testing.T) {
	c := paperCollection(t)
	e, g := entity(t, c, "e"), entity(t, c, "g")
	if got := c.SupersetsOf([]Entity{e, g}).Size(); got != 0 {
		t.Errorf("SupersetsOf(e,g).Size() = %d, want 0", got)
	}
}

func TestFromIDSets(t *testing.T) {
	c, err := FromIDSets(
		[]string{"A", "B"},
		[][]Entity{{2, 0}, {1, 1, 2}},
		3, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dict() != nil {
		t.Error("ID-built collection has a dictionary")
	}
	if got := c.EntityName(2); got != "#2" {
		t.Errorf("EntityName(2) = %q", got)
	}
	if c.Set(0).Len() != 2 || c.Set(1).Len() != 2 {
		t.Error("normalization of ID sets failed")
	}
}

func TestFromIDSetsRejectsOutOfUniverse(t *testing.T) {
	_, err := FromIDSets([]string{"A"}, [][]Entity{{5}}, 3, false)
	if err == nil {
		t.Fatal("accepted entity beyond universe")
	}
}

func TestFromIDSetsRejectsNameMismatch(t *testing.T) {
	_, err := FromIDSets([]string{"A", "B"}, [][]Entity{{0}}, 1, false)
	if err == nil {
		t.Fatal("accepted mismatched names/elems lengths")
	}
}

func TestFindByElements(t *testing.T) {
	c := paperCollection(t)
	s2 := c.FindByName("S2")
	if got := c.FindByElements(s2.Elems); got != s2 {
		t.Errorf("FindByElements returned %v", got)
	}
	if got := c.FindByElements([]Entity{0}); got != nil {
		t.Errorf("FindByElements on non-member = %v", got)
	}
}

func TestEntityNameWithDict(t *testing.T) {
	c := paperCollection(t)
	a := entity(t, c, "a")
	if got := c.EntityName(a); got != "a" {
		t.Errorf("EntityName = %q", got)
	}
	if got := c.EntityName(Entity(1000)); got != "#1000" {
		t.Errorf("EntityName(unknown) = %q", got)
	}
}
