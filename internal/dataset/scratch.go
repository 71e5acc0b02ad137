package dataset

import (
	"slices"

	"setdiscovery/internal/bitset"
)

// Scratch is the reusable working memory of one selection worker. The
// selection hot path (candidates → sort → Partition → recurse) historically
// allocated, at every node of every lookahead, a count array sized to the
// entity universe, an EntityCount slice and two bitsets; a Scratch owns all
// of that once so steady-state selection allocates nothing.
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

	// Dense counting state (universes up to denseThreshold): counts is
	// sized to the collection's universe on first use and zeroed over the
	// touched range [lo, hi] after every count, so reuse costs a ranged
	// memclr instead of a fresh universe-sized allocation.
	counts []int32

	// Sparse counting state (universes beyond denseThreshold): a reusable
	// map, emptied with clear() after every count.
	sparse map[Entity]int32

	// ecBuf backs the slice returned by InformativeEntitiesInto.
	ecBuf []EntityCount

	// subFree recycles Subset headers released by Release.
	subFree []*Subset
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
		s.c, s.members, s.size, s.sc = c, members, size, sc
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

// InformativeEntitiesInto is the allocation-free InformativeEntities: same
// result, same order (ascending entity ID), but counted in the scratch's
// reusable state and returned in a slice that aliases the scratch. The
// result is valid until the next InformativeEntitiesInto call on sc.
func (s *Subset) InformativeEntitiesInto(sc *Scratch) []EntityCount {
	if s.c.numEntities <= denseThreshold {
		return s.informativeDenseInto(sc)
	}
	return s.informativeSparseInto(sc)
}

// informativeDenseInto mirrors informativeDense over sc.counts. The touched
// range is zeroed after collection, so the array is clean for the next call
// without a universe-sized memclr.
func (s *Subset) informativeDenseInto(sc *Scratch) []EntityCount {
	if len(sc.counts) < s.c.numEntities {
		sc.counts = make([]int32, s.c.numEntities)
	}
	counts := sc.counts
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
		}
		return true
	})
	out := sc.ecBuf[:0]
	size := int32(s.size)
	for e := lo; e <= hi; e++ {
		if n := counts[e]; n > 0 && n < size {
			out = append(out, EntityCount{Entity(e), int(n)})
		}
	}
	if hi >= lo {
		clear(counts[lo : hi+1])
	}
	sc.ecBuf = out
	return out
}

// informativeSparseInto mirrors the map path of InformativeEntities over a
// reusable map, sorting in place with slices.SortFunc.
func (s *Subset) informativeSparseInto(sc *Scratch) []EntityCount {
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
	size := int32(s.size)
	for e, n := range counts {
		if n > 0 && n < size {
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
// Release (or detached with Unpool) when the caller is done with them.
func (s *Subset) PartitionScratch(e Entity, sc *Scratch) (with, without *Subset) {
	in := sc.pool.Get(len(s.c.sets))
	for _, idx := range s.c.Postings(e) {
		if s.members.Test(int(idx)) {
			in.Set(int(idx))
		}
	}
	out := sc.pool.Get(len(s.c.sets))
	s.members.AndNotInto(in, out)
	withN := in.Count()
	return sc.newSubset(s.c, in, withN), sc.newSubset(s.c, out, s.size-withN)
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
