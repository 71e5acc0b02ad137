package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	b := New(100)
	if b.Count() != 0 || !b.Empty() || b.Cap() != 100 {
		t.Errorf("New(100): Count=%d Empty=%v Cap=%d", b.Count(), b.Empty(), b.Cap())
	}
}

func TestNewZeroCapacity(t *testing.T) {
	b := New(0)
	if b.Count() != 0 || !b.Empty() {
		t.Error("New(0) not empty")
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewFull(n)
		if b.Count() != n {
			t.Errorf("NewFull(%d).Count() = %d", n, b.Count())
		}
	}
}

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 7 {
		t.Error("Clear(64) failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set":    func() { b.Set(10) },
		"SetNeg": func() { b.Set(-1) },
		"Test":   func() { b.Test(10) },
		"Clear":  func() { b.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And on mismatched capacities did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestFromSliceAndSlice(t *testing.T) {
	in := []uint32{3, 70, 7, 120}
	b := FromSlice(130, in)
	got := b.Slice()
	want := []uint32{3, 7, 70, 120}
	if len(got) != len(want) {
		t.Fatalf("Slice() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice() = %v, want %v", got, want)
		}
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromSlice(200, []uint32{1, 5, 64, 130})
	b := FromSlice(200, []uint32{5, 64, 131})
	if got := a.And(b).Slice(); !eq(got, []uint32{5, 64}) {
		t.Errorf("And = %v", got)
	}
	if got := a.AndNot(b).Slice(); !eq(got, []uint32{1, 130}) {
		t.Errorf("AndNot = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(100, []uint32{1, 2, 3})
	b := FromSlice(100, []uint32{2, 3, 4})
	c := a.Clone()
	c.InPlaceAnd(b)
	if !eq(c.Slice(), []uint32{2, 3}) {
		t.Errorf("InPlaceAnd = %v", c.Slice())
	}
	if !eq(a.Slice(), []uint32{1, 2, 3}) {
		t.Error("in-place ops modified the clone source")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(64, []uint32{7})
	b := a.Clone()
	b.Set(8)
	if a.Test(8) {
		t.Error("Clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice(65, []uint32{0, 64})
	b := FromSlice(65, []uint32{0, 64})
	c := FromSlice(65, []uint32{0})
	d := FromSlice(66, []uint32{0, 64})
	if !a.Equal(b) {
		t.Error("equal bitsets reported unequal")
	}
	if a.Equal(c) {
		t.Error("unequal contents reported equal")
	}
	if a.Equal(d) {
		t.Error("different capacities reported equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := FromSlice(100, []uint32{1, 2, 3, 4})
	visited := 0
	b.ForEach(func(i int) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Errorf("visited %d bits, want 2", visited)
	}
}

func TestNext(t *testing.T) {
	b := FromSlice(200, []uint32{5, 64, 199})
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1}, {-5, 5},
	}
	for _, c := range cases {
		if got := b.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(10).Next(0); got != -1 {
		t.Errorf("Next on empty = %d", got)
	}
}

func TestString(t *testing.T) {
	b := FromSlice(10, []uint32{1, 3})
	if got := b.String(); got != "{1, 3}" {
		t.Errorf("String() = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestTrimKeepsFullWithinCapacity(t *testing.T) {
	b := NewFull(65)
	if b.Count() != 65 {
		t.Errorf("NewFull(65).Count() = %d", b.Count())
	}
	// AndNot with empty must not expose ghost bits beyond capacity.
	if got := b.AndNot(New(65)).Count(); got != 65 {
		t.Errorf("AndNot ghost bits: Count = %d", got)
	}
}

func eq(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- property tests against a map model ---

func positionsFrom(raw []uint16, n int) []uint32 {
	out := make([]uint32, 0, len(raw))
	for _, v := range raw {
		out = append(out, uint32(int(v)%n))
	}
	return out
}

func TestQuickBitsetMatchesMapModel(t *testing.T) {
	const n = 300
	f := func(rawA, rawB []uint16) bool {
		pa, pb := positionsFrom(rawA, n), positionsFrom(rawB, n)
		a, b := FromSlice(n, pa), FromSlice(n, pb)
		ma, mb := map[uint32]bool{}, map[uint32]bool{}
		for _, v := range pa {
			ma[v] = true
		}
		for _, v := range pb {
			mb[v] = true
		}
		inter, diff := 0, 0
		for v := range ma {
			if mb[v] {
				inter++
			} else {
				diff++
			}
		}
		return a.And(b).Count() == inter &&
			a.AndNot(b).Count() == diff &&
			a.Count() == len(ma)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSliceRoundTrip(t *testing.T) {
	const n = 500
	f := func(raw []uint16) bool {
		ps := positionsFrom(raw, n)
		b := FromSlice(n, ps)
		return FromSlice(n, b.Slice()).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
