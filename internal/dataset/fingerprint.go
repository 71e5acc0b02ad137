package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"io"
)

// Fingerprint is a 128-bit hash identifying a sub-collection of one
// Collection: it is computed over the member-set bitset (and its capacity),
// so two Subsets of the same Collection receive equal fingerprints iff they
// have the same members. It replaces the canonical string keys previously
// used to memoise lookahead results: a fingerprint is a fixed-size value
// (no allocation, cheap to compare and shard on) at the price of a ~2^-128
// per-pair collision probability, negligible against the cache sizes any
// tree build can reach.
type Fingerprint struct {
	Hi, Lo uint64
}

// Fingerprint returns the 128-bit fingerprint of the sub-collection's
// membership. It is a pure function of the members — safe to call from any
// number of goroutines sharing the Subset. It keys the SelectionMemo, the
// snapshot guards and the cache shards. It panics on a view (see Project):
// a view's bitset is local, so equal bitsets of two views can stand for
// different sets; lookahead over views keys by XORFingerprint instead.
func (s *Subset) Fingerprint() Fingerprint {
	if s.c.view != nil {
		panic("dataset: Fingerprint of a projected subset")
	}
	hi, lo := s.members.Sum128()
	return Fingerprint{Hi: hi, Lo: lo}
}

// ContentFingerprint returns a 128-bit hash of the collection's contents:
// the set names and element lists in collection order. Two collections built
// from the same input hash equal, so a serialized session state can be
// guarded against restoration over a different collection (where its set
// indexes and entity IDs would silently mean something else). Computed once
// and cached — the Collection is immutable.
func (c *Collection) ContentFingerprint() Fingerprint {
	c.fpOnce.Do(func() {
		h := fnv.New128a()
		var buf [binary.MaxVarintLen64]byte
		writeUvarint := func(v uint64) {
			h.Write(buf[:binary.PutUvarint(buf[:], v)])
		}
		writeUvarint(uint64(len(c.sets)))
		for _, s := range c.sets {
			writeUvarint(uint64(len(s.Name)))
			io.WriteString(h, s.Name)
			writeUvarint(uint64(len(s.Elems)))
			prev := Entity(0)
			for _, e := range s.Elems {
				writeUvarint(uint64(e - prev)) // sorted: deltas stay small
				prev = e
			}
		}
		sum := h.Sum(nil)
		c.fp = Fingerprint{
			Hi: binary.BigEndian.Uint64(sum[:8]),
			Lo: binary.BigEndian.Uint64(sum[8:]),
		}
	})
	return c.fp
}
