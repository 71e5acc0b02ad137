package dataset

import (
	"slices"

	"setdiscovery/internal/bitset"
)

// view is what the compact collection built by Subset.Project knows about
// the collection it was projected from. A Collection with a non-nil view
// belongs to one Scratch and is rebuilt in place by its next Project.
type view struct {
	from     *Collection   // the collection the view was projected from
	sets     []uint32      // local set index → set index in from
	entities []Entity      // local entity ID → entity ID in from, ascending
	keys     []Fingerprint // local set index → setKey of its global set

	// next[l] is where Project writes local entity l's next posting.
	next []int32

	// Backing arrays of the view's sets, elements and postings, reused by
	// the next Project.
	setBuf  []Set
	elemBuf []Entity
	postBuf []uint32
}

// Project returns the compact view of the sub-collection: a pooled subset
// holding every set of a collection kept in sc, in which local set i is the
// i-th member of s and the entities are those the members touch, numbered
// 0..m−1 in ascending order of their IDs in s's collection. Numbering in
// that order keeps every set's elements sorted and leaves entity order, and
// so every tie broken by entity ID, unchanged. A node's bitset on the view
// is ⌈n/64⌉ words however large the collection, and the view's subsets
// carry the XOR keys of their global members (see XORFingerprint), so
// lookahead caches keyed by them stay shared across views.
//
// s may itself be a subset of a view: the nested view then stands for s's
// view one level up and takes each set's key from it, so its keys are
// still those of the global sets. Map a view's sets and entities one level
// up with GlobalSet and GlobalEntity. The view's buffers belong to sc and
// are rebuilt by its next Project, so Release the returned subset and
// every subset split from it before projecting again on sc; projecting a
// subset of the view sc holds onto sc panics. Warm buffers make Project
// allocation-free.
func (s *Subset) Project(sc *Scratch) *Subset {
	if s.c == sc.proj {
		panic("dataset: Project onto the scratch that holds the subset's view")
	}
	if sc.proj == nil {
		sc.proj = &Collection{view: &view{}}
	}
	v, p := sc.proj, sc.proj.view
	p.from = s.c

	// Local entity IDs, with each entity's posting list cut from one
	// backing array. The global→local map borrows the counting state: the
	// dense count cells (zero after counting) or the sparse map, made here
	// since the root of a view counts nothing.
	touched := s.countInto(sc, int32(s.size)+1, sc.ecBuf[:0])
	sc.ecBuf = touched
	m, total := len(touched), 0
	for _, ec := range touched {
		total += ec.Count
	}
	dense := s.c.numEntities <= denseThreshold
	if dense {
		sc.denseState(s.c.numEntities)
	} else {
		sc.sparseState()
	}
	p.entities = slices.Grow(p.entities[:0], m)
	p.postBuf = slices.Grow(p.postBuf[:0], total)[:total]
	p.next = slices.Grow(p.next[:0], m)[:m]
	v.postings = slices.Grow(v.postings[:0], m)[:m]
	off := 0
	for l, ec := range touched {
		p.entities = append(p.entities, ec.Entity)
		v.postings[l] = p.postBuf[off : off+ec.Count]
		p.next[l] = int32(off)
		off += ec.Count
		if dense {
			sc.counts[ec.Entity] = int32(l)
		} else {
			sc.sparse[ec.Entity] = int32(l)
		}
	}

	// Local sets in member order: elements mapped to local IDs (still
	// ascending), postings appended in local set order (so sorted), and the
	// members' keys XORed into the root's.
	n := s.size
	p.sets, p.keys = p.sets[:0], p.keys[:0]
	p.setBuf = slices.Grow(p.setBuf[:0], n)[:n]
	p.elemBuf = slices.Grow(p.elemBuf[:0], total)[:total]
	v.sets = slices.Grow(v.sets[:0], n)[:n]
	var key Fingerprint
	local, off := 0, 0
	s.members.ForEach(func(i int) bool {
		gs := s.c.sets[i]
		elems := p.elemBuf[off : off+len(gs.Elems)]
		off += len(gs.Elems)
		for j, e := range gs.Elems {
			var l int32
			if dense {
				l = sc.counts[e]
			} else {
				l = sc.sparse[e]
			}
			elems[j] = Entity(l)
			p.postBuf[p.next[l]] = uint32(local)
			p.next[l]++
		}
		p.setBuf[local] = Set{Index: local, Name: gs.Name, Elems: elems}
		v.sets[local] = &p.setBuf[local]
		k := s.c.key(i)
		p.sets = append(p.sets, uint32(i))
		p.keys = append(p.keys, k)
		key = key.xor(k)
		local++
		return true
	})
	if dense {
		for _, e := range p.entities {
			sc.counts[e] = 0
		}
	} else {
		clear(sc.sparse)
	}
	v.numEntities = m

	members := sc.pool.Get(n)
	for i := range n {
		members.Set(i)
	}
	root := sc.newSubset(v, members, n)
	root.xor = key
	return root
}

// GlobalEntity maps entity e of the subset's collection to its ID in the
// collection the subset was projected from: one level up, so on a subset
// of a nested view, to the ID in the view it was projected from. On a
// subset that is not a view it returns e.
func (s *Subset) GlobalEntity(e Entity) Entity {
	if p := s.c.view; p != nil {
		return p.entities[e]
	}
	return e
}

// GlobalSet maps set index i of the subset's collection to the set it
// stands for in the collection the subset was projected from, one level up
// as GlobalEntity maps entities. On a subset that is not a view it returns
// set i.
func (s *Subset) GlobalSet(i int) *Set {
	if p := s.c.view; p != nil {
		return p.from.sets[p.sets[i]]
	}
	return s.c.sets[i]
}

// XORFingerprint returns the XOR of the fixed 128-bit keys of the
// sub-collection's member sets (setKey), identified by their index in the
// collection the members come from: a view's local sets count as the
// global sets they stand for. Unlike Fingerprint it is therefore equal for
// equal global members whichever view holds them, and it splits in O(1):
// a partition's halves XOR to their parent's key. Subsets of a view carry
// their key, computed as Project, PartitionScratch, Partition and Without
// make them; any other subset computes it from its members.
// Distinct member sets collide with probability 2^−128 per pair, as with
// Fingerprint.
func (s *Subset) XORFingerprint() Fingerprint {
	if s.c.view != nil {
		return s.xor
	}
	var key Fingerprint
	s.members.ForEach(func(i int) bool {
		key = key.xor(setKey(i, len(s.c.sets)))
		return true
	})
	return key
}

// key returns the fixed key of set i of c: its setKey, or on a view the
// key of the global set it stands for.
func (c *Collection) key(i int) Fingerprint {
	if p := c.view; p != nil {
		return p.keys[i]
	}
	return setKey(i, len(c.sets))
}

// viewKey returns the XOR key of members, a bitset over the sets of c: the
// zero key unless c is a view, whose subsets carry their key.
func (c *Collection) viewKey(members *bitset.Bits) Fingerprint {
	var key Fingerprint
	if p := c.view; p != nil {
		members.ForEach(func(i int) bool {
			key = key.xor(p.keys[i])
			return true
		})
	}
	return key
}

func (f Fingerprint) xor(g Fingerprint) Fingerprint {
	return Fingerprint{Hi: f.Hi ^ g.Hi, Lo: f.Lo ^ g.Lo}
}

// setKey is the fixed pseudo-random 128-bit key of set index i of a
// collection of n sets: the first two outputs of a splitmix64 generator
// seeded with (n, i). It is computed when needed, never tabled.
func setKey(i, n int) Fingerprint {
	first := (uint64(n)<<32 | uint64(uint32(i))) + splitmixGamma
	return Fingerprint{Hi: splitmix64(first), Lo: splitmix64(first + splitmixGamma)}
}

const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 is the splitmix64 output function: a bijective avalanche mix.
func splitmix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
