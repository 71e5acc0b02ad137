// Package cache provides the concurrency-safe memoisation store shared by
// the entity-selection strategies (Algorithm 1's Cache and its relatives).
//
// A Cache maps 192-bit keys — a 128-bit sub-collection fingerprint plus a
// 64-bit auxiliary word packing strategy parameters such as the remaining
// lookahead depth and beam width — to arbitrary entry values. The store is
// sharded: keys are distributed over a fixed power-of-two number of
// independently mutex-striped segments, so concurrent tree-build workers and
// discovery sessions contend only when they touch the same shard. Because
// fingerprints are already uniformly distributed hashes, the shard index is
// a cheap mix of the key words.
//
// Entries are write-once-wins-last: concurrent Put calls for one key may
// overwrite each other, which is sound for the selection caches because
// every value written for a key is independently valid (an exact result or
// a certified bound). Hit/miss counters are maintained per shard with
// atomics and aggregated by Stats, giving builds and benchmarks a hit-rate
// signal without extra locking.
//
// A cache from New grows without bound — right for one build or
// experiment, wrong for a server. NewBounded caps each shard with a clock
// (second-chance) eviction ring so long-running processes can keep their
// factory caches forever: evicted entries are recomputed on the next miss,
// never wrong.
package cache

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Key identifies one memoised computation: the sub-collection fingerprint
// (Hi, Lo) and an auxiliary word for whatever parameters distinguish
// computations over the same sub-collection (lookahead depth, beam width...).
type Key struct {
	Hi, Lo, Aux uint64
}

const (
	shardBits  = 6
	shardCount = 1 << shardBits // 64 shards
)

// cacheLine is the assumed coherence-granule size; 64 bytes on every
// platform this project targets.
const cacheLine = 64

// clockSlot is one entry of a bounded shard's second-chance ring. ref is
// the "recently used" bit: set atomically by Get under the shard read lock,
// examined and cleared by the eviction sweep under the write lock.
type clockSlot[V any] struct {
	key Key
	val V
	ref uint32
}

// shardFields holds the live state of one mutex-striped segment of the
// table. It is split from shard so the padding below can be derived from
// its size instead of being hand-computed.
//
// A shard runs in exactly one of two modes, fixed at construction:
// unbounded (m non-nil, the original map) or bounded (slots/idx non-nil, a
// fixed-capacity clock ring with second-chance eviction).
type shardFields[V any] struct {
	mu        sync.RWMutex
	m         map[Key]V      // unbounded mode
	slots     []clockSlot[V] // bounded mode: ring storage, grows on demand to bcap
	idx       map[Key]int32  // bounded mode: key -> slot index
	bcap      int32          // bounded mode: max slots (fixed at construction)
	hand      int32          // bounded mode: clock hand
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// shard pads shardFields up to the next whole multiple of the cache line so
// neighbouring shards' hot mutex and counter words never false-share. The
// pad length is computed from unsafe.Sizeof, so it stays correct if the
// layout of sync.RWMutex or the map header changes across Go versions —
// unlike the previous hand-computed "[64 - 48]byte". Rounding to the NEXT
// multiple keeps the pad non-zero even if the fields ever grow to an exact
// line multiple (a trailing zero-size field would re-introduce sharing of
// the adjacent shard's first word through the final line and change the
// struct's size rules). shardFields' size does not depend on V (the map is
// one word), so sizing the pad off the struct{} instantiation is exact; the
// compile-time assertion below and TestShardCacheLineAlignment enforce both
// properties.
type shard[V any] struct {
	shardFields[V]
	_ [(unsafe.Sizeof(shardFields[struct{}]{})/cacheLine+1)*cacheLine - unsafe.Sizeof(shardFields[struct{}]{})]byte
}

// Compile-time assertion: a shard is a whole number of cache lines. The
// expression is a constant; negating a non-zero uintptr constant does not
// compile, so any mis-sizing breaks the build here rather than silently
// degrading throughput.
const _ = -(unsafe.Sizeof(shard[struct{}]{}) % cacheLine)

// Cache is a sharded, mutex-striped fingerprint-keyed memo table. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[V any] struct {
	shards [shardCount]shard[V]
}

// New returns an empty cache that grows without bound.
func New[V any]() *Cache[V] {
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]V)
	}
	return c
}

// NewBounded returns an empty cache holding at most (approximately) n
// entries, evicting with a per-shard clock (second-chance) sweep once full:
// a Get sets an entry's reference bit, the sweep clears bits until it finds
// an unreferenced victim, so recently used entries survive. The bound is
// distributed over the shards and rounded up, so the true maximum is
// ceil(n/shardCount)·shardCount.
//
// Eviction is safe for the selection caches by construction: every entry is
// a memoised exact result or certified bound, so an evicted entry is merely
// recomputed — never wrong. Bounded caches let long-running serving
// processes keep per-collection factories forever without unbounded growth.
//
// The cap is a ceiling, not a reservation: shards grow their rings on
// demand, so a generously bounded cache (setdiscd defaults to 1M entries)
// costs memory proportional to what the workload actually caches. A shard's
// ring is indexed by int32, so the per-shard cap is clamped to
// math.MaxInt32.
func NewBounded[V any](n int) *Cache[V] {
	perShard := max(1, min((n-1)/shardCount+1, math.MaxInt32))
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].bcap = int32(perShard)
		c.shards[i].idx = make(map[Key]int32)
	}
	return c
}

// Bound returns the per-shard entry cap, or 0 for an unbounded cache.
func (c *Cache[V]) Bound() int {
	if c.shards[0].m != nil {
		return 0
	}
	return int(c.shards[0].bcap)
}

// shardFor picks the segment for a key. Fingerprints are uniform hashes, so
// folding the words is enough to spread keys across shards; Aux is multiplied
// by an odd constant so small parameter values (k, q) still move bits into
// the shard index.
func (c *Cache[V]) shardFor(k Key) *shard[V] {
	h := k.Lo ^ k.Hi>>shardBits ^ k.Aux*0x9e3779b97f4a7c15
	return &c.shards[h&(shardCount-1)]
}

// Get returns the entry for k, if present, and records the hit or miss. On
// a bounded cache a hit also sets the entry's second-chance bit (an atomic
// store, so concurrent readers under the shared read lock never race).
func (c *Cache[V]) Get(k Key) (V, bool) {
	s := c.shardFor(k)
	var v V
	var ok bool
	s.mu.RLock()
	if s.m != nil {
		v, ok = s.m[k]
	} else if i, found := s.idx[k]; found {
		v, ok = s.slots[i].val, true
		atomic.StoreUint32(&s.slots[i].ref, 1)
	}
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put stores the entry for k, overwriting any previous value. On a full
// bounded shard it first evicts the first entry the clock hand reaches
// whose second-chance bit is clear (clearing set bits as it sweeps).
func (c *Cache[V]) Put(k Key, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m != nil {
		s.m[k] = v
		return
	}
	if i, ok := s.idx[k]; ok {
		s.slots[i].val = v
		atomic.StoreUint32(&s.slots[i].ref, 1)
		return
	}
	var i int32
	if len(s.slots) < int(s.bcap) {
		// Below the cap: grow the ring. The append may move the backing
		// array, which is safe because Get's reference-bit stores happen
		// under the read lock this writer excludes.
		i = int32(len(s.slots))
		s.slots = append(s.slots, clockSlot[V]{key: k, val: v, ref: 1})
		s.idx[k] = i
		return
	}
	// Second-chance sweep. Terminates within 2·len(slots) steps: the
	// first lap clears every reference bit it passes, so the second
	// lap's first slot is unreferenced at the latest.
	for atomic.LoadUint32(&s.slots[s.hand].ref) != 0 {
		atomic.StoreUint32(&s.slots[s.hand].ref, 0)
		s.hand = (s.hand + 1) % int32(len(s.slots))
	}
	i = s.hand
	s.evictions.Add(1)
	delete(s.idx, s.slots[i].key)
	s.hand = (s.hand + 1) % int32(len(s.slots))
	s.slots[i].key = k
	s.slots[i].val = v
	atomic.StoreUint32(&s.slots[i].ref, 1)
	s.idx[k] = i
}

// Len returns the number of entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		if s.m != nil {
			n += len(s.m)
		} else {
			n += len(s.slots)
		}
		s.mu.RUnlock()
	}
	return n
}

// Reset discards all entries and zeroes the hit/miss counters. A bounded
// cache keeps its mode and capacity.
func (c *Cache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if s.m != nil {
			s.m = make(map[Key]V)
		} else {
			clear(s.slots) // zero values so the GC drops what they held
			s.slots = s.slots[:0]
			clear(s.idx)
			s.hand = 0
		}
		s.mu.Unlock()
		s.hits.Store(0)
		s.misses.Store(0)
		s.evictions.Store(0)
	}
}

// Entry is one key/value pair returned by Export.
type Entry[V any] struct {
	Key Key
	Val V
}

// Export returns up to max entries, for warming another cache (a freshly
// added engine, a restarted process). On a bounded cache entries whose
// second-chance bit is set — the recently used, "hot" part of the ring — are
// returned first, so a truncated export keeps the entries most worth
// shipping; an unbounded cache exports in map order. Export does not perturb
// the counters or the reference bits. Under concurrent mutation the export is
// a consistent-per-shard sample, which is all warming needs.
func (c *Cache[V]) Export(max int) []Entry[V] {
	if max <= 0 {
		return nil
	}
	var hot, cold []Entry[V]
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		if s.m != nil {
			for k, v := range s.m {
				if len(hot) >= max {
					break
				}
				hot = append(hot, Entry[V]{k, v})
			}
		} else {
			for j := range s.slots {
				sl := &s.slots[j]
				if atomic.LoadUint32(&sl.ref) != 0 {
					if len(hot) < max {
						hot = append(hot, Entry[V]{sl.key, sl.val})
					}
				} else if len(cold) < max {
					cold = append(cold, Entry[V]{sl.key, sl.val})
				}
			}
		}
		s.mu.RUnlock()
		if len(hot) >= max {
			break
		}
	}
	if n := max - len(hot); n > 0 {
		if n > len(cold) {
			n = len(cold)
		}
		hot = append(hot, cold[:n]...)
	}
	return hot
}

// Stats is a point-in-time aggregate of cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64 // entries displaced by the clock sweep (bounded mode)
	Entries   int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats aggregates the per-shard counters. Counters and entry counts are
// read without a global lock, so under concurrent mutation the aggregate is
// approximate — exact whenever the cache is quiescent.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		s.mu.RLock()
		if s.m != nil {
			st.Entries += len(s.m)
		} else {
			st.Entries += len(s.slots)
		}
		s.mu.RUnlock()
	}
	return st
}
