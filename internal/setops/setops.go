// Package setops implements set algebra over sorted []uint32 slices. Sets in
// a collection are stored as strictly increasing uint32 element lists; these
// routines are the shared primitives for building collections, inverted
// indexes and candidate filtering.
package setops

import (
	"slices"
	"sort"
)

// Normalize sorts s and removes duplicates in place, returning the
// normalized slice (which aliases s's backing array).
func Normalize(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// IsNormalized reports whether s is strictly increasing.
func IsNormalized(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Contains reports whether sorted slice s contains v (binary search).
func Contains(s []uint32, v uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// Intersect returns the intersection of two normalized slices as a new
// slice. It is IntersectInto against a fresh buffer.
func Intersect(a, b []uint32) []uint32 {
	return IntersectInto(make([]uint32, 0, min(len(a), len(b))), a, b)
}

// IntersectInto appends the intersection of two normalized slices to dst
// and returns the extended slice — the destination-buffer variant of
// Intersect for callers that reuse a buffer across calls (candidate mining,
// superset filtering). It dispatches to the same galloping fast path as
// Intersect when the inputs are very differently sized. dst must not alias
// a or b. Pass dst[:0] to reuse its backing array.
func IntersectInto(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > 32*len(a) {
		return intersectGallopInto(dst, a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// intersectGallopInto intersects a small slice against a much larger one by
// exponential search, appending matches to dst.
func intersectGallopInto(dst []uint32, small, big []uint32) []uint32 {
	lo := 0
	for _, v := range small {
		// Exponential search for v in big[lo:].
		hi := lo + 1
		for hi < len(big) && big[hi] < v {
			lo = hi
			hi *= 2
		}
		if hi > len(big) {
			hi = len(big)
		}
		idx := lo + sort.Search(hi-lo, func(i int) bool { return big[lo+i] >= v })
		if idx < len(big) && big[idx] == v {
			dst = append(dst, v)
			lo = idx + 1
		} else {
			lo = idx
		}
		if lo >= len(big) {
			break
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| without allocating.
func IntersectCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Equal reports whether two normalized slices hold the same elements.
func Equal(a, b []uint32) bool {
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
