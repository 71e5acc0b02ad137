package dataset

import (
	"math/bits"
	"slices"

	"setdiscovery/internal/bitset"
	"setdiscovery/internal/freelist"
)

// Scratch is the reusable working memory of one selection worker. At every
// node of every lookahead, selection takes the node's informative entities
// (InformativeEntitiesInto, SplitInformativeInto), ranks them, and splits
// the node by each candidate (PartitionScratch) before recursing. A
// Scratch owns the count state, the EntityCount buffer and the bitsets
// those steps need, and the compact view a selection root is projected
// onto (Project), so steady-state selection allocates nothing. Each node
// of a lookahead on a view is counted at most once: the view's root reads
// its counts from its posting lists, and the halves of a split derive
// theirs from their parent's list by counting the smaller half only.
//
// Ownership rules (see also the README "Memory discipline" section):
//
//   - A Scratch is a single-worker object, lent to one selection or one
//     build worker at a time: it must not be used by two goroutines at
//     once. That includes Release, which recycles the Subset header onto
//     the creating scratch's free list — call it only from the scratch's
//     owning worker (or strictly after synchronizing with it, as the tree
//     builder's fork–join does before the parent releases what it
//     partitioned).
//   - The bitset Pool behind it IS concurrency-safe, so one pool may be
//     shared by many Scratches: the parallel tree builder gives every
//     forked branch its own scratch over one build-wide pool, and bitsets
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

// scratches is the process-wide free list behind BorrowScratch.
var scratches = freelist.New(NewScratch)

// BorrowScratch lends a scratch from a process-wide free list for the
// duration of one call, for a caller that counts and partitions but never
// projects a view: the strategies with no state of their own borrow one
// per selection, so a zero value or a freshly minted instance selects in
// warm memory. Such a scratch holds no pointer to a collection, which is
// what makes one list safe for every collection in the process. Hand it
// back with ReturnScratch.
func BorrowScratch() *Scratch {
	sc, _ := scratches.Get(0)
	return sc
}

// ReturnScratch hands back a scratch from BorrowScratch. Call it only once
// every slice and pooled subset drawn from sc is done with, and only when
// the call that borrowed it returns normally.
func ReturnScratch(sc *Scratch) { scratches.Put(sc, 0) }

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
// valid until the next InformativeEntitiesInto call on sc. On the root of a
// view (Project) nothing is counted: an entity's count is the length of its
// posting list.
func (s *Subset) InformativeEntitiesInto(sc *Scratch) []EntityCount {
	sc.ecBuf = s.AppendInformative(sc, sc.ecBuf[:0])
	return sc.ecBuf
}

// AppendInformative appends the informative entities of the sub-collection
// to dst, as InformativeEntitiesInto returns them, and returns the extended
// slice. It uses sc's count state but not its result buffer, so the list
// lives as long as dst does.
func (s *Subset) AppendInformative(sc *Scratch, dst []EntityCount) []EntityCount {
	return s.countInto(sc, int32(s.size), dst)
}

// countInto appends the entities of the members like AppendInformative,
// keeping those in fewer than limit member sets: limit = Size() keeps the
// informative ones, Size()+1 every touched one.
func (s *Subset) countInto(sc *Scratch, limit int32, dst []EntityCount) []EntityCount {
	switch {
	case s.c.view != nil && s.size == len(s.c.sets):
		return s.countRoot(limit, dst)
	case s.c.numEntities <= denseThreshold:
		return s.countDenseInto(sc, limit, dst)
	}
	return s.countSparseInto(sc, limit, dst)
}

// countRoot collects the counts of a view's root, which holds every set of
// the view: an entity's count is the length of its posting list, and every
// entity of the view is in some set, so there is nothing to count.
func (s *Subset) countRoot(limit int32, dst []EntityCount) []EntityCount {
	dst = slices.Grow(dst, len(s.c.postings))
	for e, p := range s.c.postings {
		if n := len(p); int32(n) < limit {
			dst = append(dst, EntityCount{Entity(e), n})
		}
	}
	return dst
}

// denseState returns the dense count cells and seen bitmap, grown to a
// universe of n entities.
func (sc *Scratch) denseState(n int) (counts []int32, seen []uint64) {
	if len(sc.counts) < n {
		sc.counts = make([]int32, n)
		sc.seen = make([]uint64, (n+63)/64)
	}
	return sc.counts, sc.seen
}

// countDenseInto counts into sc.counts, one cell per entity, marking
// each touched entity in the seen bitmap, and collects by walking the set
// bits of the bitmap over the window [lo, hi] of touched IDs: a
// sub-collection's members typically touch a few hundred entities spread
// over tens of thousands of IDs, and the bitmap walk costs one word per 64
// IDs of the window plus one step per touched entity. Walking the bits in
// ascending order keeps the result in entity-ID order without sorting.
func (s *Subset) countDenseInto(sc *Scratch, limit int32, dst []EntityCount) []EntityCount {
	counts, seen := sc.denseState(s.c.numEntities)
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
	out := dst
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
	return out
}

// sparseState returns the sparse count map, made on first use.
func (sc *Scratch) sparseState() map[Entity]int32 {
	if sc.sparse == nil {
		sc.sparse = make(map[Entity]int32)
	}
	return sc.sparse
}

// countSparseInto counts into a reusable map and sorts the collected
// entities in place by entity ID.
func (s *Subset) countSparseInto(sc *Scratch, limit int32, dst []EntityCount) []EntityCount {
	counts := sc.sparseState()
	s.members.ForEach(func(i int) bool {
		for _, e := range s.c.sets[i].Elems {
			counts[e]++
		}
		return true
	})
	out := dst
	for e, n := range counts {
		if n > 0 && n < limit {
			out = append(out, EntityCount{e, int(n)})
		}
	}
	clear(counts)
	slices.SortFunc(out[len(dst):], func(a, b EntityCount) int {
		if a.Entity < b.Entity {
			return -1
		}
		if a.Entity > b.Entity {
			return 1
		}
		return 0
	})
	return out
}

// SplitInformativeInto derives the informative entities of both halves a
// and b of a split of a node from parent, the node's informative entities
// exactly as InformativeEntitiesInto returns them: every one, in entity
// order. It counts the elements of the smaller half only, and takes the
// larger half's count of each parent entity as the parent's count minus
// the smaller half's. An entity in none or all of the node's sets is in
// none or all of each half's, so neither half has an informative entity
// outside parent. The lists are appended to aDst and bDst and equal what
// InformativeEntitiesInto returns for a and b; the count state is zero
// again afterwards.
func SplitInformativeInto(sc *Scratch, parent []EntityCount, a, b *Subset, aDst, bDst []EntityCount) (aList, bList []EntityCount) {
	aDst, bDst = slices.Grow(aDst, len(parent)), slices.Grow(bDst, len(parent))
	if b.size < a.size {
		bList, aList = b.subtractInto(sc, parent, a.size, bDst, aDst)
		return aList, bList
	}
	return a.subtractInto(sc, parent, b.size, aDst, bDst)
}

// subtractInto counts the members of s, the smaller half of a split of the
// node whose informative entities are parent and whose other half has
// other sets, and appends the informative entities of s to dst and those
// of the other half to otherDst (see SplitInformativeInto).
func (s *Subset) subtractInto(sc *Scratch, parent []EntityCount, other int, dst, otherDst []EntityCount) ([]EntityCount, []EntityCount) {
	c, n := s.c, s.size
	if c.numEntities > denseThreshold {
		counts := sc.sparseState()
		s.members.ForEach(func(i int) bool {
			for _, e := range c.sets[i].Elems {
				counts[e]++
			}
			return true
		})
		for _, ec := range parent {
			k := int(counts[ec.Entity])
			if k > 0 && k < n {
				dst = append(dst, EntityCount{ec.Entity, k})
			}
			if l := ec.Count - k; l > 0 && l < other {
				otherDst = append(otherDst, EntityCount{ec.Entity, l})
			}
		}
		clear(counts)
		return dst, otherDst
	}
	counts, _ := sc.denseState(c.numEntities)
	s.members.ForEach(func(i int) bool {
		for _, e := range c.sets[i].Elems {
			counts[e]++
		}
		return true
	})
	for _, ec := range parent {
		k := int(counts[ec.Entity])
		counts[ec.Entity] = 0
		if k > 0 && k < n {
			dst = append(dst, EntityCount{ec.Entity, k})
		}
		if l := ec.Count - k; l > 0 && l < other {
			otherDst = append(otherDst, EntityCount{ec.Entity, l})
		}
	}
	// The only entities s touches outside parent are in every set of the
	// node, so in the first set of s: clearing its cells clears the rest.
	if first := s.members.Next(0); first >= 0 {
		for _, e := range c.sets[first].Elems {
			counts[e] = 0
		}
	}
	return dst, otherDst
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
