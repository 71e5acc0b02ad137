package discovery

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/webtables"
)

// memoTestCollection returns a synthetic collection of n sets. Sessions
// towards every one of its sets visit every internal node of the strategy's
// decision tree, n−1 distinct candidate sets, so a memo bounded below n−1
// entries must evict, wherever the keys hash.
func memoTestCollection(t *testing.T, n int) *dataset.Collection {
	t.Helper()
	c, err := synth.Generate(synth.Params{N: n, SizeMin: 8, SizeMax: 14, Alpha: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSharedSelectionConcurrentEviction hammers one small-bound memo with
// concurrent solo sessions (plus a batch for mixed load) well past its entry
// cap: every session must still ask exactly the questions an unshared
// reference asks — an evicted entry is recomputed, never wrong — the store
// must stay at its bound, and no session may leak pooled subsets. A bound of
// 64 gives each shard one entry and 256 gives it four, so the second bound
// evicts from shards that hold several. The 256 bound runs over 320 sets,
// more keys than the memo holds, so it evicts whichever way the keys hash;
// at 64, the 60-set collection's 59 keys share a shard with near certainty.
// Run with -race, this is also the memo's data-race proof.
func TestSharedSelectionConcurrentEviction(t *testing.T) {
	for _, tc := range []struct{ sets, bound int }{{60, 64}, {320, 256}} {
		t.Run(fmt.Sprintf("bound%d", tc.bound), func(t *testing.T) {
			hammerSharedSelection(t, memoTestCollection(t, tc.sets), tc.bound)
		})
	}
}

// hammerSharedSelection runs the concurrent sessions of
// TestSharedSelectionConcurrentEviction over c against a memo of the given
// bound.
func hammerSharedSelection(t *testing.T, c *dataset.Collection, bound int) {
	f := strategy.NewKLP(cost.AD, 2)

	// Unshared reference sequences, one per target.
	want := make([][]Question, c.Len())
	for i := 0; i < c.Len(); i++ {
		res, err := Run(c, nil, TargetOracle{Target: c.Set(i)}, Options{Strategy: f.New()})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Asked
	}

	const workers = 6
	memo := NewSelectionMemo(bound)
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for i := 0; i < c.Len(); i++ {
				target := c.Set((i + offset) % c.Len())
				s, err := NewSession(c, nil, Options{Strategy: f.New(), Memo: memo, MemoAux: 1})
				if err != nil {
					errc <- err
					return
				}
				oracle := TargetOracle{Target: target}
				for !s.Done() {
					e, done := s.Next()
					if done {
						break
					}
					if err := s.Answer(oracle.Answer(e)); err != nil {
						errc <- err
						return
					}
				}
				res, err := s.Result()
				if err != nil {
					errc <- err
					return
				}
				if !sameQuestions(res.Asked, want[target.Index]) {
					t.Errorf("target %s: shared question sequence diverged:\nshared:   %v\nunshared: %v",
						target.Name, res.Asked, want[target.Index])
					return
				}
				// The final candidate set escapes into the result; every
				// intermediate pooled subset must be back.
				if out := s.scratch.Pool().Stats().Outstanding(); out > 1 {
					t.Errorf("target %s: %d pooled subsets outstanding, want ≤ 1", target.Name, out)
					return
				}
			}
		}(w * 7)
	}
	// Mixed load: a batch on a memo of its own, which never touches the
	// collection memo, runs over the same collection concurrently with the
	// memo-backed solo sessions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const n = 8
		b, err := NewBatch(c, make([][]dataset.Entity, n), Options{Strategy: f.New(), Memo: NewSelectionMemo(0)})
		if err != nil {
			errc <- err
			return
		}
		oracles := make([]Oracle, n)
		for i := range oracles {
			oracles[i] = TargetOracle{Target: c.Set(i)}
		}
		driveBatch(t, b, oracles)
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := memo.Stats()
	if st.Entries > bound {
		t.Fatalf("memo holds %d entries, bound is %d", st.Entries, bound)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions — the hammer never exceeded the bound (stats %+v)", st)
	}
	if st.Hits == 0 || st.Computed == 0 {
		t.Fatalf("degenerate hammer: stats %+v", st)
	}
	t.Logf("memo: %d entries, %d evictions", st.Entries, st.Evictions)
}

// TestMemoShardRoundTrip pins the shard codec: export a warmed memo, import
// it into an empty one, and the importer must serve the same entries.
func TestMemoShardRoundTrip(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	memo := NewSelectionMemo(0)
	for i := 0; i < c.Len(); i++ {
		if _, err := Run(c, nil, TargetOracle{Target: c.Set(i)},
			Options{Strategy: f.New(), Memo: memo, MemoAux: 1}); err != nil {
			t.Fatal(err)
		}
	}
	entries := memo.Stats().Entries
	if entries < 2 {
		t.Fatalf("warm-up produced %d memo entries, want at least 2", entries)
	}

	shard := EncodeMemoShard(c, memo, 0)
	cold := NewSelectionMemo(0)
	n, err := DecodeMemoShard(c, cold, shard)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Stats().Entries; n != entries || got != entries {
		t.Fatalf("imported %d entries into %d, want %d", n, got, entries)
	}
	// A session over the warmed importer asks the reference questions and
	// computes nothing new on the popular path.
	target := c.Set(c.Len() - 1)
	ref, err := Run(c, nil, TargetOracle{Target: target}, Options{Strategy: f.New()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, nil, TargetOracle{Target: target},
		Options{Strategy: f.New(), Memo: cold, MemoAux: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameQuestions(res.Asked, ref.Asked) {
		t.Fatalf("warmed question sequence diverged:\nwarmed:    %v\nreference: %v", res.Asked, ref.Asked)
	}
	if st := cold.Stats(); st.Computed != 0 {
		t.Fatalf("warmed memo computed %d selections, want 0", st.Computed)
	}

	// Bounded export: max=1 keeps the shard decodeable and within its cap.
	one := EncodeMemoShard(c, memo, 1)
	coldOne := NewSelectionMemo(0)
	if n, err := DecodeMemoShard(c, coldOne, one); err != nil || n != 1 {
		t.Fatalf("max=1 export: imported %d, err %v", n, err)
	}

	// A rejected shard imports nothing: neither the entries parsed before
	// the fault of a shard cut by one byte, nor a shard repeating one key
	// (header, count 2, the same entry twice), which the encoder never
	// writes.
	const header = len(memoShardMagic) + 1 + 16
	if one[header] != 1 {
		t.Fatalf("max=1 export counts %d entries", one[header])
	}
	entry := one[header+1:]
	repeated := append(append(append(bytes.Clone(one[:header]), 2), entry...), entry...)
	for name, bad := range map[string][]byte{
		"one byte short": shard[:len(shard)-1],
		"repeated key":   repeated,
	} {
		fresh := NewSelectionMemo(0)
		if n, err := DecodeMemoShard(c, fresh, bad); err == nil {
			t.Fatalf("%s: shard accepted with %d entries", name, n)
		}
		if got := fresh.Stats().Entries; got != 0 {
			t.Fatalf("%s: rejected shard left %d entries in the memo", name, got)
		}
	}
}

// TestMemoHitMustSplitCandidates: a memo entry that names no entity, or
// whose first entity does not split the session's candidates, is served as
// a miss. The test puts such an entry under the paper seed {b}'s key and
// imports it through a shard, the way a tampered PUT /v1/cache/shard or
// -cache-persist file would: one entry naming the seed's own example b,
// which every candidate contains, and one with the verdict "no informative
// entity". Every session from the seed must still ask what a session on a
// fresh memo asks (served the first entry, it would ask b until
// MaxQuestions; served the second, it would end at once with every
// candidate left), and the entry the first one computes must replace the
// imported one.
func TestMemoHitMustSplitCandidates(t *testing.T) {
	c := testutil.PaperCollection()
	b := testutil.Entity(c, "b")
	seed := []dataset.Entity{b}
	fp := c.SupersetsOf(seed).Fingerprint()
	key := cache.Key{Hi: fp.Hi, Lo: fp.Lo, Aux: 1}
	for _, entry := range []selMemoEntry{{entities: seed, ok: true}, {entities: nil, ok: false}} {
		tampered := NewSelectionMemo(0)
		tampered.cache.Put(key, entry)
		memo := NewSelectionMemo(0)
		if n, err := DecodeMemoShard(c, memo, EncodeMemoShard(c, tampered, 0)); err != nil || n != 1 {
			t.Fatalf("entry %+v: imported %d entries, err %v", entry, n, err)
		}
		f := strategy.NewKLP(cost.AD, 2)
		opts := func(m *SelectionMemo) Options {
			return Options{Strategy: f.New(), Memo: m, MemoAux: 1, MaxQuestions: 2 * c.Len()}
		}
		targets := 0
		for i := 0; i < c.Len(); i++ {
			target := c.Set(i)
			if !target.Contains(b) {
				continue
			}
			targets++
			want, err := Run(c, seed, TargetOracle{Target: target}, opts(NewSelectionMemo(0)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(c, seed, TargetOracle{Target: target}, opts(memo))
			if err != nil {
				t.Fatal(err)
			}
			if !sameQuestions(got.Asked, want.Asked) || got.Target != target {
				t.Fatalf("entry %+v, target %s: imported memo asks %v and ends with %d candidates, a fresh memo asks %v",
					entry, target.Name, got.Asked, got.Candidates.Size(), want.Asked)
			}
		}
		if targets < 2 {
			t.Fatalf("%d targets contain b, want at least 2", targets)
		}
		if e, ok := memo.cache.Get(key); !ok || !e.ok || e.entities[0] == b {
			t.Fatalf("entry %+v: the seed's entry was not recomputed: %+v, present %v", entry, e, ok)
		}
	}
}

// TestMemoShardSparseEntityIDs: entity IDs are range-checked against
// NumEntities, not against the number of distinct entities, so a shard of a
// web-tables collection, whose entity IDs are sparse, imports every entry
// it exported, and an entity beyond the collection is still rejected.
func TestMemoShardSparseEntityIDs(t *testing.T) {
	p := webtables.DefaultParams()
	p.NumSets = 500
	c, err := webtables.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.DistinctEntities() >= c.NumEntities() {
		t.Fatalf("collection has %d distinct entities of %d IDs: its IDs are dense", c.DistinctEntities(), c.NumEntities())
	}
	f := strategy.NewKLP(cost.AD, 2)
	memo := NewSelectionMemo(0)
	for i := 0; i < 20; i++ {
		if _, err := Run(c, nil, TargetOracle{Target: c.Set(i * c.Len() / 20)},
			Options{Strategy: f.New(), Memo: memo, MemoAux: 1}); err != nil {
			t.Fatal(err)
		}
	}
	shard := EncodeMemoShard(c, memo, 0)
	cold := NewSelectionMemo(0)
	n, err := DecodeMemoShard(c, cold, shard)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := memo.Stats().Entries, cold.Stats().Entries; n != want || got != want {
		t.Fatalf("imported %d entries into %d, want %d", n, got, want)
	}

	for _, e := range []dataset.Entity{dataset.Entity(c.NumEntities() - 1), dataset.Entity(c.NumEntities())} {
		one := NewSelectionMemo(0)
		one.cache.Put(cache.Key{Hi: 1}, selMemoEntry{entities: []dataset.Entity{e}, ok: true})
		_, err := DecodeMemoShard(c, NewSelectionMemo(0), EncodeMemoShard(c, one, 0))
		if inRange := int(e) < c.NumEntities(); (err == nil) != inRange {
			t.Fatalf("entity %d of %d: import error %v", e, c.NumEntities(), err)
		}
	}
}

// TestMemoShardRejectsForeignAndCorrupt pins the decoder's trust boundary.
func TestMemoShardRejectsForeignAndCorrupt(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	memo := NewSelectionMemo(0)
	if _, err := Run(c, nil, TargetOracle{Target: c.Set(0)},
		Options{Strategy: f.New(), Memo: memo, MemoAux: 1}); err != nil {
		t.Fatal(err)
	}
	shard := EncodeMemoShard(c, memo, 0)

	other, err := synth.Generate(synth.Params{N: 20, SizeMin: 4, SizeMax: 8, Alpha: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMemoShard(other, NewSelectionMemo(0), shard); err == nil {
		t.Fatal("shard from a different collection accepted")
	}
	if _, err := DecodeMemoShard(c, NewSelectionMemo(0), shard[:len(shard)-1]); err == nil {
		t.Fatal("truncated shard accepted")
	}
	if _, err := DecodeMemoShard(c, NewSelectionMemo(0), append(bytes.Clone(shard), 0)); err == nil {
		t.Fatal("shard with trailing bytes accepted")
	}
	bad := bytes.Clone(shard)
	bad[0] = 'X'
	if _, err := DecodeMemoShard(c, NewSelectionMemo(0), bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = bytes.Clone(shard)
	bad[4] = 99
	if _, err := DecodeMemoShard(c, NewSelectionMemo(0), bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}
