package cache

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// shard0Key returns a key that lands in shard 0 with the given distinct
// identity, so per-shard eviction behavior is deterministic: with Hi and
// Aux zero, the shard index is Lo & (shardCount-1).
func shard0Key(i int) Key { return Key{Lo: uint64(i) * shardCount} }

func TestBoundedNeverExceedsCapacity(t *testing.T) {
	const bound = 128 // 2 per shard
	c := NewBounded[int](bound)
	if c.Bound() != bound/shardCount {
		t.Fatalf("Bound() = %d, want %d", c.Bound(), bound/shardCount)
	}
	for i := 0; i < 10*bound; i++ {
		c.Put(Key{Lo: uint64(i), Hi: uint64(i) * 7, Aux: uint64(i)}, i)
		if n := c.Len(); n > bound {
			t.Fatalf("Len() = %d exceeds bound %d after %d puts", n, bound, i+1)
		}
	}
	if n := c.Len(); n != bound {
		t.Fatalf("Len() = %d after saturation, want %d", n, bound)
	}
}

func TestBoundedGetPutRoundTrip(t *testing.T) {
	c := NewBounded[string](shardCount * 4)
	k := Key{Hi: 1, Lo: 2, Aux: 3}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "v1")
	if v, ok := c.Get(k); !ok || v != "v1" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
	c.Put(k, "v2") // overwrite in place, no growth
	if v, ok := c.Get(k); !ok || v != "v2" {
		t.Fatalf("Get after overwrite = (%q, %v)", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestBoundedSecondChance pins the clock behavior within one shard: after
// the first full sweep has consumed every insert-time reference bit, an
// entry touched by Get survives the next eviction while an untouched
// neighbour is taken instead.
func TestBoundedSecondChance(t *testing.T) {
	c := NewBounded[int](4 * shardCount) // 4 slots in shard 0
	for i := 0; i < 4; i++ {
		c.Put(shard0Key(i), i)
	}
	// First eviction: every slot still has its insert-time bit, so the
	// sweep clears all four, wraps, and takes slot 0 (entry 0). The hand
	// now rests on slot 1 and all remaining bits are clear.
	c.Put(shard0Key(4), 4)
	if _, ok := c.Get(shard0Key(0)); ok {
		t.Fatal("entry 0 survived the first full sweep")
	}
	// Give entry 1 (slot 1, next in line) its second chance.
	if _, ok := c.Get(shard0Key(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// Next eviction must skip the referenced slot 1 and take slot 2.
	c.Put(shard0Key(5), 5)
	if _, ok := c.Get(shard0Key(1)); !ok {
		t.Fatal("recently used entry 1 was evicted despite its second chance")
	}
	if _, ok := c.Get(shard0Key(2)); ok {
		t.Fatal("entry 2 survived; expected it to be the clock victim")
	}
	for _, i := range []int{3, 4, 5} {
		if v, ok := c.Get(shard0Key(i)); !ok || v != i {
			t.Fatalf("entry %d = (%d, %v), want present", i, v, ok)
		}
	}
}

// TestBoundedEvictedEntriesAreMissesNotWrong: after heavy overwrite
// pressure, every surviving key still maps to its own value.
func TestBoundedEvictedEntriesAreMissesNotWrong(t *testing.T) {
	c := NewBounded[int](shardCount)
	for i := 0; i < 1000; i++ {
		c.Put(Key{Lo: uint64(i), Hi: uint64(i * 31)}, i)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if v, ok := c.Get(Key{Lo: uint64(i), Hi: uint64(i * 31)}); ok {
			hits++
			if v != i {
				t.Fatalf("key %d returned value %d", i, v)
			}
		}
	}
	if hits == 0 || hits > shardCount {
		t.Fatalf("hits = %d, want within (0, %d]", hits, shardCount)
	}
}

func TestBoundedReset(t *testing.T) {
	c := NewBounded[int](shardCount * 2)
	for i := 0; i < 100; i++ {
		c.Put(Key{Lo: uint64(i)}, i)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Reset", c.Len())
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("Stats after Reset: %+v", st)
	}
	// Still usable, still bounded.
	for i := 0; i < 500; i++ {
		c.Put(Key{Lo: uint64(i), Aux: 9}, i)
	}
	if n := c.Len(); n > 2*shardCount {
		t.Fatalf("Len = %d exceeds bound after Reset", n)
	}
}

// TestBoundedConcurrent hammers a bounded cache from many goroutines (run
// under -race): overlapping keys force concurrent eviction sweeps and
// reference-bit stores under the read lock.
func TestBoundedConcurrent(t *testing.T) {
	c := NewBounded[int](shardCount * 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Lo: uint64((g*13 + i) % 300), Hi: uint64(i % 97)}
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 2*shardCount {
		t.Fatalf("Len = %d exceeds bound after concurrent load", n)
	}
}

// TestBoundedAllocatesLazily: the cap is a ceiling, not a reservation — a
// generously bounded empty cache must not preallocate its rings (setdiscd
// defaults to a 1M-entry bound per factory).
func TestBoundedAllocatesLazily(t *testing.T) {
	c := NewBounded[[64]byte](1 << 20)
	for i := range c.shards {
		if got := cap(c.shards[i].slots); got != 0 {
			t.Fatalf("shard %d preallocated %d slots", i, got)
		}
	}
	c.Put(Key{Lo: 1}, [64]byte{})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after one Put", c.Len())
	}
	if got := c.Bound(); got != (1<<20)/shardCount {
		t.Fatalf("Bound = %d", got)
	}
}

func TestUnboundedBoundIsZero(t *testing.T) {
	if b := New[int]().Bound(); b != 0 {
		t.Fatalf("unbounded Bound() = %d", b)
	}
}

func TestBoundedMinimumCapacity(t *testing.T) {
	c := NewBounded[int](1) // rounds up to 1 per shard
	if c.Bound() != 1 {
		t.Fatalf("Bound() = %d, want 1", c.Bound())
	}
	for i := 0; i < 10; i++ {
		c.Put(shard0Key(i), i)
	}
	if v, ok := c.Get(shard0Key(9)); !ok || v != 9 {
		t.Fatalf("latest entry = (%d, %v)", v, ok)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (single slot in shard 0)", n)
	}
}

// TestBoundedHugeBound: a bound of 2^37 or more (setdiscd -cache-bound
// accepts any int) asks for more than math.MaxInt32 slots per shard. The cap
// is clamped, never wrapped negative, and the cache serves as usual.
func TestBoundedHugeBound(t *testing.T) {
	c := NewBounded[int](1 << 37)
	if c.Bound() != math.MaxInt32 {
		t.Errorf("Bound() = %d, want %d", c.Bound(), math.MaxInt32)
	}
	k := Key{Hi: 1, Lo: 2, Aux: 3}
	c.Put(k, 7)
	if v, ok := c.Get(k); !ok || v != 7 {
		t.Fatalf("Get = (%d, %v), want (7, true)", v, ok)
	}
}

func ExampleNewBounded() {
	c := NewBounded[string](1024)
	c.Put(Key{Hi: 1}, "cached bound")
	v, ok := c.Get(Key{Hi: 1})
	fmt.Println(v, ok)
	// Output: cached bound true
}
