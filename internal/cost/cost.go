// Package cost implements the decision-tree cost model of §3–§4.1: the two
// cost metrics (AD — average leaf depth, H — tree height), their 0-step and
// 1-step lower bounds (eqs 1–4), the k-step combination rule (eqs 6–7) and
// the pruning upper limits (eqs 11–14).
//
// # Exact scaled arithmetic
//
// All bounds are kept as integers. For metric H a Value is the height
// itself. For metric AD a Value is the *sum of leaf depths* (the average
// times |C|): the paper's recurrences then become pure integer identities —
//
//	LB_AD0 sum:  ⌈n·log2 n⌉                      (eq 1 × n)
//	combine:     S(C) = S(C1) + S(C2) + n        (eq 6 × n)
//	UL(C1):      AFLV_S − n − ⌈n2·log2 n2⌉       (eq 11 × n1)
//	UL(C2):      AFLV_S − n − S(C1)              (eq 13 × n2)
//
// so pruning decisions never depend on floating-point rounding, and the
// correctness proof of Lemma 4.4 carries over verbatim. ⌈n·log2 n⌉ itself is
// computed exactly (float fast path, math/big verification when the float
// value is suspiciously close to an integer).
//
// The lookahead strategies do not call LB0 and LB1 per candidate: each
// selection worker keeps a table of LB0 up to the largest node it has
// served and lifts it with Combine, and ULFirst takes the second child's
// LB0 as an argument so that the same table serves it. The table is sized
// to the nodes served, not fixed: a 64-set collection needs 65 entries.
package cost

import (
	"math"
	"math/big"
	"math/bits"
)

// Metric selects the tree cost function being optimised (§3).
type Metric int

const (
	// AD minimises the average leaf depth — the expected number of
	// questions when all candidate sets are equally likely.
	AD Metric = iota
	// H minimises the tree height — the worst-case number of questions.
	H
)

// String returns the paper's name for the metric.
func (m Metric) String() string {
	switch m {
	case AD:
		return "AD"
	case H:
		return "H"
	default:
		return "Metric(?)"
	}
}

// Value is a scaled integer cost: the sum of leaf depths for AD, the height
// for H. See the package comment.
type Value = int64

// Inf is the initial "large number" upper limit of Algorithm 1. It is far
// below the int64 overflow line so UL arithmetic (subtracting n and child
// bounds) can never wrap.
const Inf Value = math.MaxInt64 / 4

// CeilLog2 returns ⌈log2 n⌉ for n ≥ 1 (0 for n ≤ 1).
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// CeilNLog2 returns ⌈n·log2 n⌉ exactly for n ≥ 0.
//
// Fast path: n·log2 n in float64 has absolute error ≪ 1e-6 for any feasible
// n, so whenever the float value is farther than 1e-6 from an integer its
// ceiling is provably correct. Near-integer cases are decided exactly:
// n a power of two gives the integer n·log2 n directly; otherwise
// ⌈n·log2 n⌉ = ⌈log2 n^n⌉ = BitLen(n^n), since n^n is not a power of two.
func CeilNLog2(n int) int64 {
	if n <= 1 {
		return 0
	}
	if n&(n-1) == 0 {
		return int64(n) * int64(bits.TrailingZeros(uint(n)))
	}
	x := float64(n) * math.Log2(float64(n))
	nearest := math.Round(x)
	if math.Abs(x-nearest) > 1e-6 {
		return int64(math.Ceil(x))
	}
	// Exact: ⌈log2 n^n⌉. For non-powers-of-two n, n^n has an odd prime
	// factor, so it is not a power of two and the ceiling is BitLen(n^n).
	z := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(n)), nil)
	return int64(z.BitLen())
}

// LB0 returns the 0-step scaled lower bound of a collection of n unique
// sets: ⌈n·log2 n⌉ for AD (eq 1 × n), ⌈log2 n⌉ for H (eq 2).
func LB0(m Metric, n int) Value {
	if n <= 1 {
		return 0
	}
	if m == AD {
		return CeilNLog2(n)
	}
	return Value(CeilLog2(n))
}

// Combine lifts the children's (k−1)-step scaled bounds to the parent's
// k-step scaled bound after a split into sizes n1 and n2 (eqs 6–7):
// AD sums add plus one extra question for each of the n = n1+n2 sets;
// H takes the max plus one.
func Combine(m Metric, n1 int, l1 Value, n2 int, l2 Value) Value {
	if m == AD {
		return l1 + l2 + Value(n1+n2)
	}
	if l1 >= l2 {
		return l1 + 1
	}
	return l2 + 1
}

// LB1 returns the 1-step scaled lower bound of an entity that splits the
// collection into sizes n1 and n2 (eqs 3–4).
func LB1(m Metric, n1, n2 int) Value {
	return Combine(m, n1, LB0(m, n1), n2, LB0(m, n2))
}

// ULFirst returns the exclusive upper limit for the first child's
// (k−1)-step bound (eqs 11–12 in scaled form): an entity can only beat aflv
// if LB_{k−1}(C1) is strictly below the returned value, assuming the second
// child achieves its 0-step bound lb2 = LB0(m, n2). n is the parent size.
// Derivation for AD: l1 + l2 + n < aflv with l2 ≥ lb2 requires
// l1 < aflv − n − lb2. For H: max(l1,l2)+1 < aflv requires l1 < aflv − 1.
// Both limits are exclusive, matching Algorithm 1's use of ul (line 14
// prunes when a bound is ≥ ul). The caller passes lb2 so that a table of
// LB0 serves it.
func ULFirst(m Metric, aflv Value, n int, lb2 Value) Value {
	if aflv >= Inf {
		return Inf
	}
	if m == AD {
		return aflv - Value(n) - lb2
	}
	return aflv - 1
}

// ULSecond returns the exclusive upper limit for the second child's
// (k−1)-step bound (eqs 13–14, scaled) once the first child's bound l1 is
// known: for AD, l2 < aflv − n − l1; for H, l2 < aflv − 1.
func ULSecond(m Metric, aflv Value, n int, l1 Value) Value {
	if aflv >= Inf {
		return Inf
	}
	if m == AD {
		return aflv - Value(n) - l1
	}
	return aflv - 1
}

// Unscale converts a scaled Value back to the paper's cost: AD divides the
// depth sum by n, H is already the height.
func Unscale(m Metric, v Value, n int) float64 {
	if m == AD {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	return float64(v)
}

// Scale converts a paper-units cost to a scaled Value (AD multiplies by n,
// rounding to the nearest integer; exact for real trees whose depth sums are
// integral).
func Scale(m Metric, cost float64, n int) Value {
	if m == AD {
		return Value(math.Round(cost * float64(n)))
	}
	return Value(math.Round(cost))
}
