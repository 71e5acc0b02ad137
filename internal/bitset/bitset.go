// Package bitset implements a fixed-capacity dense bitset used to represent
// sub-collections (subsets of set indexes) during decision-tree search.
// Partitioning a sub-collection by an entity is And/AndNot against the
// entity's posting bitmap; cardinalities are popcounts.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bits is a fixed-capacity bitset over [0, Cap()). Operations that combine
// two bitsets require equal capacity and panic otherwise; mixing capacities
// is always a programming error in this codebase.
type Bits struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty bitset with capacity n.
func New(n int) *Bits {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bits{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a bitset with capacity n and all n bits set.
func NewFull(n int) *Bits {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
	return b
}

// FromSlice returns a bitset of capacity n with the given positions set.
func FromSlice(n int, positions []uint32) *Bits {
	b := New(n)
	for _, p := range positions {
		b.Set(int(p))
	}
	return b
}

// trim clears bits at positions >= n in the last word.
func (b *Bits) trim() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Cap returns the capacity in bits.
func (b *Bits) Cap() int { return b.n }

// Set sets bit i. It panics if i is out of range.
func (b *Bits) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (b *Bits) Clear(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: Clear(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (b *Bits) Test(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: Test(%d) out of range [0,%d)", i, b.n))
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b *Bits) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of b.
func (b *Bits) Clone() *Bits {
	cp := &Bits{words: make([]uint64, len(b.words)), n: b.n}
	copy(cp.words, b.words)
	return cp
}

func (b *Bits) check(other *Bits) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", b.n, other.n))
	}
}

// And returns a new bitset b ∩ other.
func (b *Bits) And(other *Bits) *Bits {
	b.check(other)
	out := New(b.n)
	for i := range b.words {
		out.words[i] = b.words[i] & other.words[i]
	}
	return out
}

// AndNot returns a new bitset b \ other.
func (b *Bits) AndNot(other *Bits) *Bits {
	b.check(other)
	out := New(b.n)
	for i := range b.words {
		out.words[i] = b.words[i] &^ other.words[i]
	}
	return out
}

// AndNotInto sets dst = b \ other without allocating. dst must have the
// same capacity as b and other (it typically comes from a Pool); dst may
// alias b or other.
func (b *Bits) AndNotInto(other, dst *Bits) {
	b.check(other)
	b.check(dst)
	for i := range b.words {
		dst.words[i] = b.words[i] &^ other.words[i]
	}
}

// CopyInto copies b's contents into dst without allocating. dst must have
// the same capacity as b.
func (b *Bits) CopyInto(dst *Bits) {
	b.check(dst)
	copy(dst.words, b.words)
}

// InPlaceAnd sets b = b ∩ other.
func (b *Bits) InPlaceAnd(other *Bits) {
	b.check(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Equal reports whether b and other have identical contents and capacity.
func (b *Bits) Equal(other *Bits) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in increasing order. fn returning false
// stops the iteration early.
func (b *Bits) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the positions of all set bits in increasing order.
func (b *Bits) Slice() []uint32 {
	out := make([]uint32, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, uint32(i))
		return true
	})
	return out
}

// Next returns the position of the first set bit at or after i, or -1.
func (b *Bits) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// String renders the set bits like "{1, 5, 9}" for debugging.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
