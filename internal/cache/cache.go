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
// Every cache is bounded, by the bound given to New or else by
// DefaultBound, and every shard is one map with its share of that bound as
// an entry limit. A Put of a new key into a full shard first deletes an
// arbitrary entry of that shard: evicted entries are recomputed on the next
// miss, never wrong.
package cache

import (
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

// DefaultBound is the entry bound of a cache constructed with bound ≤ 0,
// 16,384 entries per shard. No measured workload comes near it: the largest
// cache measured, cmd/experiments' at its default scale, held 131,138
// entries.
const DefaultBound = 1 << 20

// cacheLine is the assumed coherence-granule size; 64 bytes on every
// platform this project targets.
const cacheLine = 64

// shardFields holds the live state of one mutex-striped segment of the
// table. It is split from shard so the padding below can be derived from
// its size instead of being hand-computed.
type shardFields[V any] struct {
	mu        sync.RWMutex
	m         map[Key]V
	limit     int // max entries
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

// New returns an empty cache holding at most (approximately) bound entries;
// bound ≤ 0 means DefaultBound. The bound is distributed over the shards and
// rounded up, so the true maximum is ceil(bound/shardCount)·shardCount.
//
// The bound is a ceiling, not a reservation: shards grow on demand, so a
// generously bounded cache costs memory proportional to what the workload
// actually caches.
func New[V any](bound int) *Cache[V] {
	if bound <= 0 {
		bound = DefaultBound
	}
	limit := (bound-1)/shardCount + 1
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]V)
		c.shards[i].limit = limit
	}
	return c
}

// shardFor picks the segment for a key. Fingerprints are uniform hashes, so
// folding the words is enough to spread keys across shards; Aux is multiplied
// by an odd constant so small parameter values (k, q) still move bits into
// the shard index.
func (c *Cache[V]) shardFor(k Key) *shard[V] {
	h := k.Lo ^ k.Hi>>shardBits ^ k.Aux*0x9e3779b97f4a7c15
	return &c.shards[h&(shardCount-1)]
}

// Get returns the entry for k, if present, and records the hit or miss.
func (c *Cache[V]) Get(k Key) (V, bool) {
	s := c.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put stores the entry for k, overwriting any previous value. A new key
// arriving at a full shard first evicts the first entry a range over the
// shard's map yields (Go randomises where that starts); overwriting a key
// already present evicts nothing.
func (c *Cache[V]) Put(k Key, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	if len(s.m) >= s.limit {
		if _, ok := s.m[k]; !ok {
			for old := range s.m {
				delete(s.m, old)
				break
			}
			s.evictions.Add(1)
		}
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Reset discards all entries and zeroes the counters. The bound is kept.
func (c *Cache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[Key]V)
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
// added engine, a restarted process): the shards in order, each in map
// order. Export does not perturb the counters. Under concurrent mutation
// the export is a consistent-per-shard sample, which is all warming needs.
func (c *Cache[V]) Export(max int) []Entry[V] {
	var out []Entry[V]
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if len(out) >= max {
				break
			}
			out = append(out, Entry[V]{k, v})
		}
		s.mu.RUnlock()
		if len(out) >= max {
			break
		}
	}
	return out
}

// Stats is a point-in-time aggregate of cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64 // entries displaced from full shards of a bounded cache
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
		st.Entries += len(s.m)
		s.mu.RUnlock()
	}
	return st
}
