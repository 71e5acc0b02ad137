package cache

import (
	"fmt"
	"sync"
	"testing"
)

// limits are the two shapes a cache takes: the default limit (any bound
// ≤ 0 means DefaultBound), which no test fills, and a small limit that four
// keys per shard fill. limit is every shard's expected entry limit.
var limits = []struct {
	name         string
	bound, limit int
}{
	{"no-limit", 0, DefaultBound / shardCount},
	{"negative-bound", -1, DefaultBound / shardCount},
	{"small-limit", 4 * shardCount, 4},
}

// shard0Key returns a key that lands in shard 0 with the given distinct
// identity, so per-shard eviction behavior is deterministic: with Hi and
// Aux zero, the shard index is Lo & (shardCount-1).
func shard0Key(i int) Key { return Key{Lo: uint64(i) * shardCount} }

func TestGetPut(t *testing.T) {
	for _, l := range limits {
		t.Run(l.name, func(t *testing.T) {
			c := New[int](l.bound)
			k := Key{Hi: 1, Lo: 2, Aux: 3}
			if _, ok := c.Get(k); ok {
				t.Fatal("hit on empty cache")
			}
			c.Put(k, 42)
			if v, ok := c.Get(k); !ok || v != 42 {
				t.Fatalf("Get = %d, %v; want 42, true", v, ok)
			}
			// Distinct aux words must be distinct keys.
			if _, ok := c.Get(Key{Hi: 1, Lo: 2, Aux: 4}); ok {
				t.Error("aux word ignored in key identity")
			}
			c.Put(k, 7)
			if v, _ := c.Get(k); v != 7 {
				t.Errorf("overwrite lost: got %d", v)
			}
			if n := c.Stats().Entries; n != 1 {
				t.Errorf("Entries = %d, want 1", n)
			}
		})
	}
}

// TestBoundedGetPutRoundTrip fills shard 0 to its limit and overwrites every
// entry in place: an overwrite in a full shard replaces the value and evicts
// nothing, with or without a limit.
func TestBoundedGetPutRoundTrip(t *testing.T) {
	for _, l := range limits {
		t.Run(l.name, func(t *testing.T) {
			c := New[int](l.bound)
			for i := 0; i < 4; i++ {
				c.Put(shard0Key(i), i)
			}
			for i := 0; i < 4; i++ {
				c.Put(shard0Key(i), 10+i)
			}
			for i := 0; i < 4; i++ {
				if v, ok := c.Get(shard0Key(i)); !ok || v != 10+i {
					t.Fatalf("entry %d = (%d, %v), want (%d, true)", i, v, ok, 10+i)
				}
			}
			if st := c.Stats(); st.Entries != 4 || st.Evictions != 0 {
				t.Fatalf("Stats = %+v, want 4 entries and no evictions", st)
			}
		})
	}
}

func TestStatsAndReset(t *testing.T) {
	for _, l := range limits {
		t.Run(l.name, func(t *testing.T) {
			c := New[string](l.bound)
			k := Key{Hi: 9}
			c.Get(k)      // miss
			c.Put(k, "x") //
			c.Get(k)      // hit
			c.Get(Key{})  // miss
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
				t.Fatalf("Stats = %+v, want 1 hit, 2 misses, 1 entry", st)
			}
			if got, want := st.HitRate(), 1.0/3; got != want {
				t.Errorf("HitRate = %f, want %f", got, want)
			}
			c.Reset()
			st = c.Stats()
			if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
				t.Errorf("Stats after Reset = %+v, want zeroes", st)
			}
			if (Stats{}).HitRate() != 0 {
				t.Error("HitRate of no lookups should be 0")
			}
		})
	}
}

// TestBoundedReset: Reset empties every shard and zeroes every counter,
// evictions included, and every shard keeps its limit. Under the default
// limit all 1000 keys stay.
func TestBoundedReset(t *testing.T) {
	for _, l := range limits {
		t.Run(l.name, func(t *testing.T) {
			c := New[int](l.bound)
			checkLimits(t, c, l.limit)
			for i := 0; i < 1000; i++ {
				c.Put(Key{Lo: uint64(i)}, i)
			}
			c.Reset()
			if st := c.Stats(); st != (Stats{}) {
				t.Fatalf("Stats after Reset: %+v", st)
			}
			// Still usable, still bounded the same way.
			for i := 0; i < 1000; i++ {
				c.Put(Key{Lo: uint64(i), Aux: 9}, i)
			}
			checkLimits(t, c, l.limit)
			checkHeld(t, c, l.limit, 1000)
		})
	}
}

// checkLimits fails unless every shard of c has the given entry limit and
// holds no more entries than it.
func checkLimits(t *testing.T, c *Cache[int], limit int) {
	t.Helper()
	for i := range c.shards {
		if got, n := c.shards[i].limit, len(c.shards[i].m); got != limit || n > limit {
			t.Fatalf("shard %d holds %d entries under limit %d, want limit %d", i, n, got, limit)
		}
	}
}

// checkHeld fails unless c accounts for all of the puts distinct keys it
// was given: each one held or evicted, and each one held when the limit
// leaves room for all of them in one shard.
func checkHeld(t *testing.T, c *Cache[int], limit, puts int) {
	t.Helper()
	st := c.Stats()
	if limit >= puts && (st.Entries != puts || st.Evictions != 0) {
		t.Fatalf("Stats = %+v, want %d entries and no evictions", st, puts)
	}
	if st.Entries+int(st.Evictions) != puts {
		t.Fatalf("Stats = %+v, want entries+evictions = %d", st, puts)
	}
}

// Keys are spread over multiple shards, otherwise striping buys nothing.
func TestSharding(t *testing.T) {
	for _, l := range limits {
		t.Run(l.name, func(t *testing.T) {
			c := New[int](l.bound)
			used := make(map[*shard[int]]bool)
			for i := uint64(0); i < 256; i++ {
				k := Key{Hi: i * 0x9e3779b97f4a7c15, Lo: i * 0xc2b2ae3d27d4eb4f, Aux: i}
				c.Put(k, int(i))
				used[c.shardFor(k)] = true
			}
			if len(used) < shardCount/2 {
				t.Errorf("256 hashed keys landed on only %d/%d shards", len(used), shardCount)
			}
			// Every key is distinct, so each one is held or was evicted.
			checkHeld(t, c, l.limit, 256)
		})
	}
}

// Hammer one cache from many goroutines; run under -race this verifies the
// striping. Values written for a key are always one of the valid ones.
func TestConcurrentAccess(t *testing.T) {
	for _, l := range limits {
		t.Run(l.name, func(t *testing.T) {
			c := New[uint64](l.bound)
			const goroutines = 16
			const ops = 2000
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g uint64) {
					defer wg.Done()
					for i := uint64(0); i < ops; i++ {
						k := Key{Hi: i % 97, Lo: i % 31, Aux: i % 11}
						if v, ok := c.Get(k); ok && v != k.Hi^k.Lo {
							t.Errorf("corrupt entry: key %+v value %d", k, v)
							return
						}
						c.Put(k, k.Hi^k.Lo)
					}
				}(uint64(g))
			}
			wg.Wait()
			if st := c.Stats(); st.Hits == 0 {
				t.Error("no hits across 16 goroutines sharing keys")
			}
		})
	}
}

func TestBoundedNeverExceedsCapacity(t *testing.T) {
	const bound = 128 // 2 per shard
	c := New[int](bound)
	if got := c.shards[0].limit; got != bound/shardCount {
		t.Fatalf("limit = %d, want %d", got, bound/shardCount)
	}
	for i := 0; i < 10*bound; i++ {
		c.Put(Key{Lo: uint64(i), Hi: uint64(i) * 7, Aux: uint64(i)}, i)
		if n := c.Stats().Entries; n > bound {
			t.Fatalf("Entries = %d exceeds bound %d after %d puts", n, bound, i+1)
		}
	}
	st := c.Stats()
	if st.Entries != bound {
		t.Fatalf("Entries = %d after saturation, want %d", st.Entries, bound)
	}
	if st.Evictions != 10*bound-bound {
		t.Fatalf("Evictions = %d, want %d", st.Evictions, 10*bound-bound)
	}
}

// TestBoundedEvictedEntriesAreMissesNotWrong: after heavy overwrite
// pressure, every surviving key still maps to its own value.
func TestBoundedEvictedEntriesAreMissesNotWrong(t *testing.T) {
	c := New[int](shardCount)
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

// TestBoundedConcurrent hammers a bounded cache from many goroutines (run
// under -race): overlapping keys force concurrent evictions.
func TestBoundedConcurrent(t *testing.T) {
	c := New[int](shardCount * 2)
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
	if st := c.Stats(); st.Entries > 2*shardCount || st.Evictions == 0 {
		t.Fatalf("Stats = %+v, want at most %d entries and some evictions", st, 2*shardCount)
	}
}

// TestBoundedAllocatesLazily: the bound is a ceiling, not a reservation — a
// cache under the default bound or a larger one costs no more empty than a
// one-entry-per-shard cache.
func TestBoundedAllocatesLazily(t *testing.T) {
	small := testing.AllocsPerRun(20, func() { New[[64]byte](shardCount) })
	for _, bound := range []int{0, 1 << 24} {
		if n := testing.AllocsPerRun(20, func() { New[[64]byte](bound) }); n > small {
			t.Fatalf("New(%d) makes %.0f allocations, New(%d) %.0f", bound, n, shardCount, small)
		}
	}
	c := New[[64]byte](0)
	c.Put(Key{Lo: 1}, [64]byte{})
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d after one Put", n)
	}
}

func TestBoundedMinimumCapacity(t *testing.T) {
	c := New[int](1) // rounds up to 1 per shard
	if got := c.shards[0].limit; got != 1 {
		t.Fatalf("limit = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		c.Put(shard0Key(i), i)
	}
	if v, ok := c.Get(shard0Key(9)); !ok || v != 9 {
		t.Fatalf("latest entry = (%d, %v)", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 9 {
		t.Fatalf("Stats = %+v, want 1 entry (single slot in shard 0) and 9 evictions", st)
	}
}

// TestBoundedHugeBound: setdiscd -cache-bound accepts any int, and a bound
// of 2^37 asks for 2^31 entries per shard, more than an int32 holds. The
// limit is an int, so it is kept exactly and the cache serves as usual.
func TestBoundedHugeBound(t *testing.T) {
	c := New[int](1 << 37)
	if got := c.shards[0].limit; got != (1<<37)/shardCount {
		t.Errorf("limit = %d, want %d", got, (1<<37)/shardCount)
	}
	k := Key{Hi: 1, Lo: 2, Aux: 3}
	c.Put(k, 7)
	if v, ok := c.Get(k); !ok || v != 7 {
		t.Fatalf("Get = (%d, %v), want (7, true)", v, ok)
	}
}

func ExampleNew() {
	c := New[string](1024)
	c.Put(Key{Hi: 1}, "cached bound")
	v, ok := c.Get(Key{Hi: 1})
	fmt.Println(v, ok)
	// Output: cached bound true
}
