package setops

import (
	"testing"
	"testing/quick"
)

// IntersectInto must agree with Intersect on every input, including when
// the destination buffer is reused (stale contents beyond len must never
// leak into the result).

func TestQuickIntersectIntoMatchesIntersect(t *testing.T) {
	dst := []uint32{99, 98, 97} // reused, pre-dirtied buffer
	f := func(ra, rb []uint32) bool {
		a, b := fromRaw(ra), fromRaw(rb)
		dst = IntersectInto(dst[:0], a, b)
		return Equal(dst, Intersect(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntersectIntoGallopMatchesMerge forces the galloping dispatch (one
// input over 32× the other) and checks it against the plain merge and the
// allocating Intersect across boundary shapes.
func TestIntersectIntoGallopMatchesMerge(t *testing.T) {
	big := make([]uint32, 4096)
	for i := range big {
		big[i] = uint32(i * 3) // multiples of 3
	}
	cases := [][]uint32{
		{},
		{0},
		{1},                    // no match
		{0, 3, 9, 12285},       // first and last of big
		{2, 4, 5, 7, 8},        // all misses inside range
		{12285, 12286, 999999}, // tail and beyond
		{0, 6, 33, 333, 3333},
	}
	for i, small := range cases {
		want := Intersect(small, big)
		got := IntersectInto(nil, small, big)
		if !Equal(got, want) {
			t.Errorf("case %d: gallop IntersectInto = %v, want %v", i, got, want)
		}
		// Argument order must not matter.
		if rev := IntersectInto(nil, big, small); !Equal(rev, want) {
			t.Errorf("case %d reversed: %v, want %v", i, rev, want)
		}
	}
}

// TestIntoAppendSemantics checks the documented append contract: existing
// dst contents below len are preserved, the result is appended after them.
func TestIntoAppendSemantics(t *testing.T) {
	a := norm(1, 3, 5)
	b := norm(3, 5, 7)
	got := IntersectInto([]uint32{42}, a, b)
	want := []uint32{42, 3, 5}
	if !Equal(got, want) {
		t.Fatalf("IntersectInto append = %v, want %v", got, want)
	}
}

// TestIntersectIntoNoAlloc pins the point of the variants: with a warm
// buffer, repeated calls allocate nothing.
func TestIntersectIntoNoAlloc(t *testing.T) {
	a := norm(1, 2, 3, 4, 5, 6, 7, 8)
	b := norm(2, 4, 6, 8, 10)
	dst := make([]uint32, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		dst = IntersectInto(dst[:0], a, b)
	})
	if allocs != 0 {
		t.Fatalf("IntersectInto with warm buffer: %.0f allocs/op, want 0", allocs)
	}
}
