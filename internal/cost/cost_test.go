package cost

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestCeilLog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {7, 3}, {8, 3},
		{9, 4}, {16, 4}, {17, 5}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// exactCeilNLog2 recomputes ⌈n·log2 n⌉ via math/big for verification.
func exactCeilNLog2(n int) int64 {
	if n <= 1 {
		return 0
	}
	z := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(n)), nil)
	// ⌈log2 z⌉: BitLen−1 when z is a power of two, else BitLen.
	if z.BitLen() > 0 && z.TrailingZeroBits() == uint(z.BitLen()-1) {
		return int64(z.BitLen() - 1)
	}
	return int64(z.BitLen())
}

func TestCeilNLog2SmallExhaustive(t *testing.T) {
	for n := 0; n <= 3000; n++ {
		if got, want := CeilNLog2(n), exactCeilNLog2(n); got != want {
			t.Fatalf("CeilNLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCeilNLog2PowersOfTwo(t *testing.T) {
	for tpow := 1; tpow <= 24; tpow++ {
		n := 1 << tpow
		want := int64(n) * int64(tpow)
		if got := CeilNLog2(n); got != want {
			t.Errorf("CeilNLog2(2^%d) = %d, want %d", tpow, got, want)
		}
	}
}

func TestCeilNLog2PaperExample(t *testing.T) {
	// Lemma 3.3 example: n=7 gives lower bound 2.857 = 20/7.
	if got := CeilNLog2(7); got != 20 {
		t.Errorf("CeilNLog2(7) = %d, want 20", got)
	}
	if got := Unscale(AD, LB0(AD, 7), 7); math.Abs(got-2.857142857) > 1e-6 {
		t.Errorf("LB_AD0(7) = %f, want 2.857", got)
	}
}

func TestLB0(t *testing.T) {
	if LB0(AD, 0) != 0 || LB0(AD, 1) != 0 || LB0(H, 1) != 0 {
		t.Error("LB0 of trivial collections must be 0")
	}
	if got := LB0(H, 7); got != 3 {
		t.Errorf("LB_H0(7) = %d, want 3", got)
	}
	if got := LB0(AD, 2); got != 2 { // 2 leaves at depth 1 each
		t.Errorf("LB_AD0(2) scaled = %d, want 2", got)
	}
}

func TestLB1PaperSection43Example(t *testing.T) {
	// §4.3: entities c and d split the 7-set collection 3/4:
	// LB_H1 = max(⌈log2 3⌉, ⌈log2 4⌉) + 1 = 3.
	if got := LB1(H, 3, 4); got != 3 {
		t.Errorf("LB_H1(3,4) = %d, want 3", got)
	}
	// All other informative entities (splits 6/1, 5/2): LB_H1 = 4.
	if got := LB1(H, 6, 1); got != 4 {
		t.Errorf("LB_H1(6,1) = %d, want 4", got)
	}
	if got := LB1(H, 2, 5); got != 4 {
		t.Errorf("LB_H1(2,5) = %d, want 4", got)
	}
}

func TestLB1ADValues(t *testing.T) {
	// Split 1/1: two leaves at depth 1, scaled sum 2, average 1.
	if got := LB1(AD, 1, 1); got != 2 {
		t.Errorf("LB_AD1(1,1) scaled = %d, want 2", got)
	}
	// Split 3/4 of 7: ⌈3·log2 3⌉ + ⌈4·log2 4⌉ + 7 = 5 + 8 + 7 = 20.
	if got := LB1(AD, 3, 4); got != 20 {
		t.Errorf("LB_AD1(3,4) scaled = %d, want 20", got)
	}
}

func TestCombine(t *testing.T) {
	if got := Combine(H, 5, 3, 2, 1); got != 4 {
		t.Errorf("Combine(H) = %d, want 4", got)
	}
	if got := Combine(H, 5, 1, 2, 3); got != 4 {
		t.Errorf("Combine(H) = %d, want 4", got)
	}
	if got := Combine(AD, 3, 5, 4, 8); got != 20 {
		t.Errorf("Combine(AD) = %d, want 20", got)
	}
}

func TestMostEvenSplitMinimizesLB1H(t *testing.T) {
	// Under H the most even split exactly minimises LB1 (Lemma 4.3):
	// max(n1, n−n1) is minimised at the even split and ⌈log2⌉ is monotone.
	for n := 2; n <= 64; n++ {
		best := LB1(H, n/2, n-n/2)
		for n1 := 1; n1 < n; n1++ {
			if v := LB1(H, n1, n-n1); v < best {
				t.Errorf("H n=%d: split %d/%d has LB1 %d < most-even %d",
					n, n1, n-n1, v, best)
			}
		}
	}
}

func TestMostEvenSplitNearlyMinimizesLB1AD(t *testing.T) {
	// Under AD, Lemma 4.3 holds for the un-ceilinged bound; the ceiling in
	// ⌈n·log2 n⌉ can favour a slightly uneven split whose part sizes are
	// powers of two (e.g. 20/16 beats 18/18 for n=36) by at most 1 per
	// child, i.e. 2 scaled units. Algorithm 1 therefore sorts by LB1
	// directly rather than by evenness. This test pins the wobble bound.
	for n := 2; n <= 200; n++ {
		mostEven := LB1(AD, n/2, n-n/2)
		best := mostEven
		for n1 := 1; n1 < n; n1++ {
			if v := LB1(AD, n1, n-n1); v < best {
				best = v
			}
		}
		if mostEven-best > 2 {
			t.Errorf("AD n=%d: most-even LB1 %d exceeds optimum %d by more than 2",
				n, mostEven, best)
		}
	}
}

func TestLB1NeverBelowLB0(t *testing.T) {
	// Monotonicity basis: LB1 over any split ≥ LB0 (Lemma 4.1, k=0→1).
	for _, m := range []Metric{AD, H} {
		for n := 2; n <= 128; n++ {
			for n1 := 1; n1 < n; n1++ {
				if LB1(m, n1, n-n1) < LB0(m, n) {
					t.Errorf("metric %v: LB1(%d,%d) < LB0(%d)", m, n1, n-n1, n)
				}
			}
		}
	}
}

func TestULFirstExclusiveSemantics(t *testing.T) {
	// If l1 < ULFirst then assuming l2 = LB0(C2) the combined value beats
	// aflv; if l1 == ULFirst it must not.
	for _, m := range []Metric{AD, H} {
		n1, n2 := 5, 9
		n := n1 + n2
		aflv := LB1(m, n1, n2) + 3
		ul := ULFirst(m, aflv, n, LB0(m, n2))
		l2 := LB0(m, n2)
		if ul <= 0 {
			t.Fatalf("metric %v: degenerate UL %d", m, ul)
		}
		if Combine(m, n1, ul-1, n2, l2) >= aflv {
			t.Errorf("metric %v: l1 just below UL does not beat aflv", m)
		}
		if m == AD && Combine(m, n1, ul, n2, l2) < aflv {
			t.Errorf("metric %v: l1 at UL still beats aflv (limit too tight)", m)
		}
	}
}

func TestULSecondExclusiveSemantics(t *testing.T) {
	for _, m := range []Metric{AD, H} {
		n1, n2 := 6, 10
		n := n1 + n2
		l1 := LB0(m, n1) + 1
		aflv := Combine(m, n1, l1, n2, LB0(m, n2)) + 2
		ul := ULSecond(m, aflv, n, l1)
		if Combine(m, n1, l1, n2, ul-1) >= aflv {
			t.Errorf("metric %v: l2 just below UL does not beat aflv", m)
		}
		if m == AD && Combine(m, n1, l1, n2, ul) < aflv {
			t.Errorf("metric %v: l2 at UL still beats aflv", m)
		}
	}
}

func TestULWithInfinity(t *testing.T) {
	for _, m := range []Metric{AD, H} {
		if got := ULFirst(m, Inf, 10, LB0(m, 5)); got != Inf {
			t.Errorf("ULFirst(Inf) = %d", got)
		}
		if got := ULSecond(m, Inf, 10, 3); got != Inf {
			t.Errorf("ULSecond(Inf) = %d", got)
		}
	}
}

func TestUnscaleScaleRoundTrip(t *testing.T) {
	if got := Unscale(AD, 20, 7); math.Abs(got-20.0/7) > 1e-12 {
		t.Errorf("Unscale(AD, 20, 7) = %f", got)
	}
	if got := Unscale(H, 4, 7); got != 4 {
		t.Errorf("Unscale(H, 4, 7) = %f", got)
	}
	if got := Scale(AD, 20.0/7, 7); got != 20 {
		t.Errorf("Scale(AD) = %d", got)
	}
	if got := Scale(H, 4, 99); got != 4 {
		t.Errorf("Scale(H) = %d", got)
	}
	if got := Unscale(AD, 0, 0); got != 0 {
		t.Errorf("Unscale(AD, 0, 0) = %f", got)
	}
}

func TestQuickCeilNLog2MatchesBig(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%20000 + 1
		return CeilNLog2(n) == exactCeilNLog2(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickCombineMonotone(t *testing.T) {
	// Combine is monotone in each child bound for both metrics.
	f := func(rn1, rn2 uint8, rl1, rl2 uint16, bump uint8) bool {
		n1, n2 := int(rn1)%50+1, int(rn2)%50+1
		l1, l2 := Value(rl1), Value(rl2)
		d := Value(bump)
		for _, m := range []Metric{AD, H} {
			base := Combine(m, n1, l1, n2, l2)
			if Combine(m, n1, l1+d, n2, l2) < base {
				return false
			}
			if Combine(m, n1, l1, n2, l2+d) < base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInfHeadroom(t *testing.T) {
	// UL arithmetic on values near Inf must not overflow int64.
	v := ULSecond(AD, Inf-1, 1<<30, 1<<40)
	if v > Inf || v < -Inf {
		t.Errorf("UL near Inf out of safe range: %d", v)
	}
}
