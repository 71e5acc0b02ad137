package dataset

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"setdiscovery/internal/rng"
	"setdiscovery/internal/setops"
)

// checkLayout fails t unless c is laid out as build lays it out: set i has
// index i and strictly increasing elements, every Set.Elems and every
// posting list has cap == len (so an append copies instead of overwriting
// a neighbour in the shared arena), and each posting list names, in
// increasing order, exactly the sets whose elements hold its entity.
func checkLayout(t testing.TB, c *Collection) {
	t.Helper()
	want := make(map[Entity][]uint32)
	for i, s := range c.Sets() {
		if s.Index != i || c.Set(i) != s {
			t.Fatalf("set %d has index %d", i, s.Index)
		}
		if len(s.Elems) == 0 || !setops.IsNormalized(s.Elems) {
			t.Fatalf("set %d elements %v are not strictly increasing", i, s.Elems)
		}
		if cap(s.Elems) != len(s.Elems) {
			t.Fatalf("set %d elements have cap %d, len %d", i, cap(s.Elems), len(s.Elems))
		}
		for _, e := range s.Elems {
			want[e] = append(want[e], uint32(i))
		}
	}
	lists := 0
	for e := range c.postings {
		p := c.Postings(Entity(e))
		if cap(p) != len(p) {
			t.Fatalf("entity %d posting list has cap %d, len %d", e, cap(p), len(p))
		}
		if !slices.Equal(p, want[Entity(e)]) {
			t.Fatalf("entity %d posting list %v, want %v", e, p, want[Entity(e)])
		}
		if len(p) > 0 {
			lists++
		}
	}
	if lists != len(want) || c.DistinctEntities() != len(want) {
		t.Fatalf("%d posting lists, %d distinct entities, want %d", lists, c.DistinctEntities(), len(want))
	}
}

// TestCollectionLayout checks the layout of collections from every
// constructor: ReadText (with escapes, comments, a repeated element and a
// dropped duplicate), ReadBinary, FromIDSets (unsorted, repeated and sparse
// IDs) and Builder. FromIDSets must neither change nor keep its caller's
// slices.
func TestCollectionLayout(t *testing.T) {
	text, err := ReadText(strings.NewReader(
		"# comment\nA\tx\ty\tx\n\\#B\ty\tz\\tw\r\nC\ty\tx\nD\tv\n"))
	if err != nil {
		t.Fatal(err)
	}
	if text.Len() != 3 || text.Set(1).Name != "#B" {
		t.Fatalf("text collection has %d sets, set 1 named %q", text.Len(), text.Set(1).Name)
	}

	names := []string{"p", "q", "r", "s", "t"}
	elems := [][]Entity{{9, 2, 2, 40}, {3}, {40, 9, 2}, {0, 3, 40, 7}, {1000}}
	orig := make([][]Entity, len(elems))
	for i, e := range elems {
		orig[i] = slices.Clone(e)
	}
	ids, err := FromIDSets(names, elems, 1001, true)
	if err != nil {
		t.Fatal(err)
	}
	if ids.Len() != 4 {
		t.Fatalf("FromIDSets kept %d sets, want 4", ids.Len())
	}
	for i := range elems {
		if !slices.Equal(elems[i], orig[i]) {
			t.Fatalf("FromIDSets changed its input %d: %v, was %v", i, elems[i], orig[i])
		}
		elems[i][0] = 999
	}
	if got := ids.Set(0).Elems; !slices.Equal(got, []Entity{2, 9, 40}) {
		t.Fatalf("set 0 is %v after its input changed, want [2 9 40]", got)
	}

	var buf bytes.Buffer
	if err := ids.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	bin, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		c    *Collection
	}{
		{"ReadText", text},
		{"FromIDSets", ids},
		{"ReadBinary", bin},
		{"Builder", paperCollection(t)},
		{"Builder-random", randomStringCollection(t, 300, 40, 500)},
		{"FromIDSets-random", randomCollection(rng.New(3), 300, 60)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkLayout(t, tc.c) })
	}
}

// randomStringCollection builds n random sets of up to size elements from
// a universe of m strings through a Builder, dropping duplicates.
func randomStringCollection(t *testing.T, n, size, m int) *Collection {
	t.Helper()
	r := rng.New(1)
	b := NewBuilder().DropDuplicates()
	for i := range n {
		elems := make([]string, 1+r.Intn(size))
		for j := range elems {
			elems[j] = fmt.Sprintf("e%d", r.Intn(m))
		}
		b.Add(fmt.Sprintf("set%d", i), elems)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReadTextKeepsNoInputLine: a collection read from text keeps no input
// line alive. It loads 2,000 unique sets of 50 long element names, shared
// among the sets, and requires the heap the loaded collection retains after
// garbage collection to stay below 60% of the text's size. A collection
// whose set names or entity strings were substrings of their lines would
// retain about every line, more than the text itself.
func TestReadTextKeepsNoInputLine(t *testing.T) {
	const sets, size, vocabulary = 2000, 50, 1000
	r := rng.New(7)
	var sb strings.Builder
	for i := range sets {
		fmt.Fprintf(&sb, "set%04d", i)
		for _, j := range r.Perm(vocabulary)[:size] {
			fmt.Fprintf(&sb, "\ta-long-shared-element-%05d", j)
		}
		sb.WriteByte('\n')
	}
	text := []byte(sb.String())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := ReadText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if c.Len() != sets {
		t.Fatalf("read %d sets, want %d", c.Len(), sets)
	}
	t.Logf("%d bytes of text, %d retained (%.0f%%)", len(text), retained, 100*float64(retained)/float64(len(text)))
	if limit := int64(len(text)) * 6 / 10; retained >= limit {
		t.Fatalf("the collection retains %d bytes of heap, want under %d (60%% of its %d-byte text)",
			retained, limit, len(text))
	}
	runtime.KeepAlive(text)
}
