package dataset

import (
	"math/bits"
	"slices"

	"setdiscovery/internal/bitset"
)

// Scratch is the reusable working memory of one selection worker. At every
// node of every lookahead, selection counts the node's informative entities
// (InformativeEntitiesInto), ranks them, and splits the node by each
// candidate (PartitionScratch) before recursing. A Scratch owns the count
// state, the EntityCount buffer and the bitsets those steps need, and the
// compact view a selection root is projected onto (Project), so
// steady-state selection allocates nothing.
//
// Ownership rules (see also the README "Memory discipline" section):
//
//   - A Scratch is a single-worker object, like the strategy instance that
//     carries it: it must not be used by two goroutines at once. That
//     includes Release, which recycles the Subset header onto the creating
//     scratch's free list — call it only from the scratch's owning worker
//     (or strictly after synchronizing with it, as the tree builder's
//     fork–join does before the parent releases what it partitioned).
//   - The bitset Pool behind it IS concurrency-safe, so one pool may be
//     shared by many Scratches: the parallel tree builder gives every
//     worker context its own scratch over one build-wide pool, and bitsets
//     migrate freely between workers through it.
//   - Slices returned by InformativeEntitiesInto alias the scratch and are
//     valid only until its next use; callers must copy what they keep.
//   - Subsets returned by PartitionScratch are pooled: call Release exactly
//     once when done, or Unpool before letting one escape to code that does
//     not follow the discipline. Releasing is only recycling — a forgotten
//     Release leaks nothing to the GC's eyes, it merely costs a future
//     allocation.
type Scratch struct {
	pool *bitset.Pool

	// Dense counting state (universes up to denseThreshold): counts holds
	// one member count per entity and seen one bit per entity, set beside
	// every increment. Both are sized to the collection's universe on first
	// use. The collect pass visits only the set bits, zeroing each count it
	// reads and then the bitmap words it walked, so both are all zero
	// between calls and reuse costs O(touched entities + window/64), not a
	// universe-sized allocation or a scan of the whole window.
	counts []int32
	seen   []uint64

	// Sparse counting state (universes beyond denseThreshold): a reusable
	// map, emptied with clear() after every count.
	sparse map[Entity]int32

	// ecBuf backs the slice returned by InformativeEntitiesInto.
	ecBuf []EntityCount

	// subFree recycles Subset headers released by Release.
	subFree []*Subset

	// proj is the compact collection Project builds and rebuilds in place;
	// nil until the first Project.
	proj *Collection
}

// NewScratch returns a Scratch with its own private bitset pool.
func NewScratch() *Scratch {
	return &Scratch{pool: bitset.NewPool()}
}

// NewScratchWithPool returns a Scratch drawing bitsets from the given
// (shared, concurrency-safe) pool.
func NewScratchWithPool(p *bitset.Pool) *Scratch {
	return &Scratch{pool: p}
}

// Pool returns the bitset pool backing the scratch.
func (sc *Scratch) Pool() *bitset.Pool { return sc.pool }

// newSubset mints a pooled Subset header, recycling a released one when
// available.
func (sc *Scratch) newSubset(c *Collection, members *bitset.Bits, size int) *Subset {
	if n := len(sc.subFree); n > 0 {
		s := sc.subFree[n-1]
		sc.subFree[n-1] = nil
		sc.subFree = sc.subFree[:n-1]
		s.c, s.members, s.size, s.xor, s.sc = c, members, size, Fingerprint{}, sc
		return s
	}
	return &Subset{c: c, members: members, size: size, sc: sc}
}

// release recycles a pooled subset: the membership bitset goes back to the
// (possibly shared) pool, the header to this scratch's free list.
func (sc *Scratch) release(s *Subset) {
	sc.pool.Put(s.members)
	s.c, s.members, s.size = nil, nil, 0
	sc.subFree = append(sc.subFree, s)
}

// InformativeEntitiesInto counts the informative entities of the
// sub-collection (see InformativeEntities) in the scratch's reusable state,
// ascending by entity ID. The returned slice aliases the scratch and is
// valid until the next InformativeEntitiesInto call on sc.
func (s *Subset) InformativeEntitiesInto(sc *Scratch) []EntityCount {
	return s.countInto(sc, int32(s.size))
}

// countInto counts the entities of the members like
// InformativeEntitiesInto, keeping those in fewer than limit member sets:
// limit = Size() keeps the informative ones, Size()+1 every touched one.
func (s *Subset) countInto(sc *Scratch, limit int32) []EntityCount {
	if s.c.numEntities <= denseThreshold {
		return s.countDenseInto(sc, limit)
	}
	return s.countSparseInto(sc, limit)
}

// countDenseInto counts into sc.counts, one cell per entity, marking
// each touched entity in the seen bitmap, and collects by walking the set
// bits of the bitmap over the window [lo, hi] of touched IDs: a
// sub-collection's members typically touch a few hundred entities spread
// over tens of thousands of IDs, and the bitmap walk costs one word per 64
// IDs of the window plus one step per touched entity. Walking the bits in
// ascending order keeps the result in entity-ID order without sorting.
func (s *Subset) countDenseInto(sc *Scratch, limit int32) []EntityCount {
	if len(sc.counts) < s.c.numEntities {
		sc.counts = make([]int32, s.c.numEntities)
		sc.seen = make([]uint64, (s.c.numEntities+63)/64)
	}
	counts, seen := sc.counts, sc.seen
	lo, hi := s.c.numEntities, -1
	s.members.ForEach(func(i int) bool {
		elems := s.c.sets[i].Elems
		if len(elems) > 0 {
			if first := int(elems[0]); first < lo {
				lo = first
			}
			if last := int(elems[len(elems)-1]); last > hi {
				hi = last
			}
		}
		for _, e := range elems {
			counts[e]++
			seen[e/64] |= 1 << (e % 64)
		}
		return true
	})
	out := sc.ecBuf[:0]
	if hi >= lo {
		first := lo / 64
		words := seen[first : hi/64+1]
		for w, word := range words {
			base := (first + w) * 64
			for ; word != 0; word &= word - 1 {
				e := base + bits.TrailingZeros64(word)
				if n := counts[e]; n < limit {
					out = append(out, EntityCount{Entity(e), int(n)})
				}
				counts[e] = 0
			}
		}
		clear(words)
	}
	sc.ecBuf = out
	return out
}

// countSparseInto counts into a reusable map and sorts the collected
// result in place by entity ID.
func (s *Subset) countSparseInto(sc *Scratch, limit int32) []EntityCount {
	if sc.sparse == nil {
		sc.sparse = make(map[Entity]int32)
	}
	counts := sc.sparse
	s.members.ForEach(func(i int) bool {
		for _, e := range s.c.sets[i].Elems {
			counts[e]++
		}
		return true
	})
	out := sc.ecBuf[:0]
	for e, n := range counts {
		if n > 0 && n < limit {
			out = append(out, EntityCount{e, int(n)})
		}
	}
	clear(counts)
	slices.SortFunc(out, func(a, b EntityCount) int {
		if a.Entity < b.Entity {
			return -1
		}
		if a.Entity > b.Entity {
			return 1
		}
		return 0
	})
	sc.ecBuf = out
	return out
}

// PartitionScratch is the pooled Partition: it splits the sub-collection by
// entity e into (with, without) exactly like Partition, but both results
// draw their bitsets from the scratch's pool and must be handed back with
// Release (or detached with Unpool) when the caller is done with them. On a
// view it XORs the with half's key over the postings it walks, and the
// without half's key is the parent's XOR that.
func (s *Subset) PartitionScratch(e Entity, sc *Scratch) (with, without *Subset) {
	in, out := sc.pool.Get(len(s.c.sets)), sc.pool.Get(len(s.c.sets))
	withN, withKey := s.split(e, in, out)
	with, without = sc.newSubset(s.c, in, withN), sc.newSubset(s.c, out, s.size-withN)
	with.xor, without.xor = withKey, s.xor.xor(withKey)
	return with, without
}

// Release hands a PartitionScratch result back for reuse. It is a no-op on
// subsets that did not come from a scratch (so callers may release
// unconditionally) and on subsets already detached by Unpool. After Release
// the subset must not be used again: its membership bitset will back a
// future partition.
func (s *Subset) Release() {
	if s == nil || s.sc == nil {
		return
	}
	sc := s.sc
	s.sc = nil
	sc.release(s)
}

// Unpool detaches a pooled subset from its scratch so it can safely escape
// to callers outside the release discipline (result snapshots, the public
// API): after Unpool the subset behaves exactly like one from Partition,
// and Release becomes a no-op. Its bitset simply never returns to the pool.
func (s *Subset) Unpool() {
	if s != nil {
		s.sc = nil
	}
}
