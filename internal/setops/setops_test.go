package setops

import (
	"reflect"
	"testing"
	"testing/quick"
)

func norm(vs ...uint32) []uint32 { return Normalize(vs) }

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want []uint32
	}{
		{nil, nil},
		{[]uint32{5}, []uint32{5}},
		{[]uint32{3, 1, 2}, []uint32{1, 2, 3}},
		{[]uint32{2, 2, 2}, []uint32{2}},
		{[]uint32{4, 1, 4, 1, 9}, []uint32{1, 4, 9}},
	}
	for _, c := range cases {
		got := Normalize(append([]uint32(nil), c.in...))
		if !Equal(got, c.want) {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsNormalized(t *testing.T) {
	if !IsNormalized([]uint32{1, 2, 3}) || !IsNormalized(nil) {
		t.Error("sorted slices reported unnormalized")
	}
	if IsNormalized([]uint32{1, 1}) || IsNormalized([]uint32{2, 1}) {
		t.Error("unsorted/duplicated slices reported normalized")
	}
}

func TestContains(t *testing.T) {
	s := norm(1, 3, 5, 7)
	for _, v := range []uint32{1, 3, 5, 7} {
		if !Contains(s, v) {
			t.Errorf("Contains(%v, %d) = false", s, v)
		}
	}
	for _, v := range []uint32{0, 2, 4, 6, 8} {
		if Contains(s, v) {
			t.Errorf("Contains(%v, %d) = true", s, v)
		}
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b, want []uint32
	}{
		{norm(1, 2, 3), norm(2, 3, 4), norm(2, 3)},
		{norm(1, 2), norm(3, 4), nil},
		{nil, norm(1), nil},
		{norm(1, 5, 9), norm(1, 5, 9), norm(1, 5, 9)},
	}
	for _, c := range cases {
		if got := Intersect(c.a, c.b); !Equal(got, c.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Intersect(c.b, c.a); !Equal(got, c.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestIntersectGalloping(t *testing.T) {
	big := make([]uint32, 10000)
	for i := range big {
		big[i] = uint32(i * 3)
	}
	small := []uint32{0, 3, 7, 2997, 29997}
	want := []uint32{0, 3, 2997, 29997}
	if got := Intersect(small, big); !Equal(got, want) {
		t.Errorf("galloping Intersect = %v, want %v", got, want)
	}
}

func TestIntersectCountMatchesIntersect(t *testing.T) {
	a := norm(1, 4, 6, 8, 12)
	b := norm(2, 4, 8, 9, 12, 40)
	if got, want := IntersectCount(a, b), len(Intersect(a, b)); got != want {
		t.Errorf("IntersectCount = %d, want %d", got, want)
	}
}

// --- property tests against a map-based model ---

type modelSet map[uint32]bool

func toModel(s []uint32) modelSet {
	m := make(modelSet, len(s))
	for _, v := range s {
		m[v] = true
	}
	return m
}

func fromRaw(raw []uint32) []uint32 {
	return Normalize(append([]uint32(nil), raw...))
}

func sameAsModel(s []uint32, m modelSet) bool {
	if len(s) != len(m) {
		return false
	}
	for _, v := range s {
		if !m[v] {
			return false
		}
	}
	return IsNormalized(s)
}

func TestQuickIntersectModel(t *testing.T) {
	f := func(ra, rb []uint32) bool {
		a, b := fromRaw(ra), fromRaw(rb)
		ma, mb := toModel(a), toModel(b)
		want := make(modelSet)
		for v := range ma {
			if mb[v] {
				want[v] = true
			}
		}
		return sameAsModel(Intersect(a, b), want) &&
			IntersectCount(a, b) == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(raw []uint32) bool {
		once := fromRaw(raw)
		twice := Normalize(append([]uint32(nil), once...))
		return Equal(once, twice) && IsNormalized(once)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGallopMatchesMerge(t *testing.T) {
	f := func(ra []uint32, seed uint32) bool {
		small := fromRaw(ra)
		if len(small) > 8 {
			small = small[:8]
		}
		big := make([]uint32, 0, 600)
		v := seed % 7
		for i := 0; i < 600; i++ {
			v += uint32(i%5) + 1
			big = append(big, v)
		}
		big = Normalize(big)
		got := Intersect(small, big)
		want := make([]uint32, 0)
		for _, x := range small {
			if Contains(big, x) {
				want = append(want, x)
			}
		}
		return Equal(got, Normalize(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectDoesNotAliasInputs(t *testing.T) {
	a, b := norm(1, 2, 3), norm(2, 3, 4)
	got := Intersect(a, b)
	if len(got) > 0 {
		got[0] = 999
	}
	if !reflect.DeepEqual(a, norm(1, 2, 3)) || !reflect.DeepEqual(b, norm(2, 3, 4)) {
		t.Error("Intersect result aliases an input slice")
	}
}
