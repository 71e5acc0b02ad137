package discovery

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/dataset"
)

// Collection-wide selection memo: the in-process layer of the selection-
// cache fabric. A SelectionMemo amortises strategy selections across *all*
// sessions over one collection — solo sessions and batch members alike — for
// the lifetime of the process. Selections are pure functions of
// (candidate-set fingerprint, behaviour-relevant options), so N sessions
// parked at the same candidate-set state — the popular prefix states of
// common seed sets — pay one strategy computation total, and the result
// every later session receives is byte-identical to what it would have
// computed alone (test-pinned across strategies, unknowns and backtracking).
//
// Three properties make the sharing sound:
//
//   - selectBatch returns a freshly allocated entity slice that nothing ever
//     mutates (sessions only re-slice their copy of it), so one result can be
//     handed to any number of sessions on any goroutines;
//   - sessions with "don't know" exclusions bypass the memo entirely — their
//     selection depends on the per-session excluded set, not just the
//     fingerprint;
//   - the memo stores only entity slices, never pooled subsets or partitions,
//     so it cannot interact with any session's subset recycling.
//
// The store is bounded like every cache (cache.New; cache.DefaultBound unless
// the caller gives a bound), so memory stays flat no matter how many distinct
// states a fleet's traffic touches: a full shard evicts an arbitrary entry,
// which is recomputed on the next miss, never wrong. Concurrent
// misses on one key coalesce through a single-flight guard: the first session
// computes, later arrivals park on a channel and receive the same slice,
// instead of a thundering herd recomputing one hot lookahead.

// selMemoEntry is one memoised selection: the ranked interaction entities and
// the strategy's "informative entity exists" verdict.
type selMemoEntry struct {
	entities []dataset.Entity
	ok       bool
}

// memoFlight is one in-progress computation that concurrent misses coalesce
// on. The result fields are written before done is closed; the channel close
// is the happens-before edge that publishes them to waiters.
type memoFlight struct {
	done     chan struct{}
	entities []dataset.Entity
	ok       bool
}

// SelectionMemo is a collection-wide, bounded, single-flight memo of strategy
// selections keyed by candidate-set fingerprint plus an options hash
// (Options.MemoAux). All methods are safe for concurrent use by any number of
// sessions.
type SelectionMemo struct {
	cache *cache.Cache[selMemoEntry]

	mu       sync.Mutex
	inflight map[cache.Key]*memoFlight

	coalesced atomic.Int64 // misses that waited on another session's compute
	computed  atomic.Int64 // strategy computations actually run
}

// NewSelectionMemo returns an empty memo bounded at (approximately) bound
// entries; bound ≤ 0 means cache.DefaultBound.
func NewSelectionMemo(bound int) *SelectionMemo {
	return &SelectionMemo{
		cache:    cache.New[selMemoEntry](bound),
		inflight: make(map[cache.Key]*memoFlight),
	}
}

// MemoStats is a point-in-time aggregate of a SelectionMemo's effectiveness.
type MemoStats struct {
	Hits      int64 // selections served from the memo
	Misses    int64 // lookups that found nothing (including coalesced waits)
	Evictions int64 // entries displaced from full cache shards
	Coalesced int64 // misses that waited on a concurrent computation
	Computed  int64 // strategy computations actually run through the memo
	Entries   int
}

// Stats returns the memo's counters. Approximate under concurrent mutation,
// exact when quiescent.
func (m *SelectionMemo) Stats() MemoStats {
	cs := m.cache.Stats()
	return MemoStats{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Evictions: cs.Evictions,
		Coalesced: m.coalesced.Load(),
		Computed:  m.computed.Load(),
		Entries:   cs.Entries,
	}
}

// selectShared is the memo-backed selection path of a session: serve a hit,
// coalesce onto an in-progress computation, or compute and publish; computed
// reports the last. The computing session runs the strategy on its own
// instance and scratch and is the one whose SelectionTime grows; hits and
// coalesced waits cost their session no selection time, which only affects
// the wall-clock accounting — never the question sequence.
//
// A hit whose first entity does not split the candidates is served as a
// miss, and the computed entry replaces it. The memo computes no such
// entry, but an imported shard can carry one (see DecodeMemoShard), and a
// session served it would ask the same question until MaxQuestions.
func (m *SelectionMemo) selectShared(s *Session) (entities []dataset.Entity, ok, computed bool) {
	fp := s.cs.Fingerprint()
	key := cache.Key{Hi: fp.Hi, Lo: fp.Lo, Aux: s.opts.MemoAux}
	if e, ok := m.cache.Get(key); ok && (!e.ok || splits(s.cs, e.entities[0])) {
		return e.entities, e.ok, false
	}
	m.mu.Lock()
	if fl, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		m.coalesced.Add(1)
		<-fl.done
		return fl.entities, fl.ok, false
	}
	fl := &memoFlight{done: make(chan struct{})}
	m.inflight[key] = fl
	m.mu.Unlock()

	fl.entities, fl.ok = selectBatch(s.cs, s.opts, s.excluded, s.res, s.scratch)
	m.computed.Add(1)
	m.cache.Put(key, selMemoEntry{entities: fl.entities, ok: fl.ok})
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
	close(fl.done)
	return fl.entities, fl.ok, true
}

// splits reports whether e is in some but not all of sub's member sets,
// that is whether asking it narrows sub. It walks the members only until it
// has seen one of each, so a valid entry, which splits the candidates,
// costs a few Set.Contains calls.
func splits(sub *dataset.Subset, e dataset.Entity) bool {
	in, out := false, false
	sub.ForEachMember(func(set *dataset.Set) bool {
		if set.Contains(e) {
			in = true
		} else {
			out = true
		}
		return !in || !out
	})
	return in && out
}

// Persisted/exported memo shards: a versioned, fingerprint-guarded binary
// encoding of a memo's entries, reusing the session-state primitive
// codecs. Shards are the one way memo state travels between engines: the
// /v1/cache/shard export/import surface that warms a freshly added engine
// from a healthy peer, and the -cache-persist file a restarted setdiscd
// reloads. Session snapshots carry no memo state.
//
// Layout:
//
//	"SDCS" | version (1) | collection content fingerprint (16 bytes)
//	      | entry count | entries
//
// and each entry is key.Hi | key.Lo | key.Aux (8-byte big-endian each — the
// key words are high-entropy hashes, so varints would only pad them), the ok
// verdict, and the entity list in verbatim strategy-ranked order.
//
// The decoder bounds its work like the session-state decoders: counts are
// bounded by the remaining input, entities are range-checked against the
// collection, a foreign collection fingerprint is rejected, and malformed
// input yields an error, never a panic (fuzz-enforced). It parses and checks
// the whole shard before storing any entry, so a rejected shard leaves the
// memo as it was, and it rejects a repeated key, which the encoder never
// writes. It cannot check that an entry is the selection its key's state
// would compute — a key is a hash of a state the decoder never sees — so
// imported entries are trusted as given, and every session whose state
// hashes to a key is served its entry, provided its first entity splits
// the session's candidates (selectShared recomputes one that does not).
// Import shards only from engines of the same fleet.

// memoShardMagic identifies a persisted selection-cache shard.
const memoShardMagic = "SDCS"

// memoShardVersion is the shard format version; decoders reject versions
// they do not know.
const memoShardVersion = 1

func (w *stateWriter) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

func (r *stateReader) u64() (uint64, error) {
	if len(r.data) < 8 {
		return 0, corrupt("truncated word")
	}
	v := binary.BigEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v, nil
}

// EncodeMemoShard serializes up to max of the memo's entries, in no
// particular order, guarded by c's content fingerprint. max ≤ 0 exports
// everything.
func EncodeMemoShard(c *dataset.Collection, m *SelectionMemo, max int) []byte {
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	w := &stateWriter{buf: make([]byte, 0, 512)}
	w.buf = append(w.buf, memoShardMagic...)
	w.u8(memoShardVersion)
	w.fingerprint(c.ContentFingerprint())
	entries := m.cache.Export(max)
	w.uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.u64(e.Key.Hi)
		w.u64(e.Key.Lo)
		w.u64(e.Key.Aux)
		w.bool(e.Val.ok)
		w.entities(e.Val.entities)
	}
	return w.buf
}

// DecodeMemoShard imports a shard encoded by EncodeMemoShard into m,
// rejecting shards from a different collection, malformed shards and
// repeated keys. It returns the number of entries imported; a rejected
// shard imports none.
func DecodeMemoShard(c *dataset.Collection, m *SelectionMemo, data []byte) (int, error) {
	if len(data) < len(memoShardMagic)+1 || string(data[:4]) != memoShardMagic {
		return 0, corrupt("bad shard magic")
	}
	if data[4] != memoShardVersion {
		return 0, corrupt("unknown shard version %d", data[4])
	}
	r := &stateReader{data: data[5:]}
	fp, err := r.fingerprint()
	if err != nil {
		return 0, err
	}
	if fp != c.ContentFingerprint() {
		return 0, corrupt("shard was exported from a different collection")
	}
	n, err := r.count()
	if err != nil {
		return 0, err
	}
	// Entity IDs run up to NumEntities and need not be dense: a collection
	// built from raw IDs may leave some unused.
	numEntities := c.NumEntities()
	staged := make(map[cache.Key]selMemoEntry)
	for i := 0; i < n; i++ {
		var key cache.Key
		if key.Hi, err = r.u64(); err != nil {
			return 0, err
		}
		if key.Lo, err = r.u64(); err != nil {
			return 0, err
		}
		if key.Aux, err = r.u64(); err != nil {
			return 0, err
		}
		ok, err := r.bool()
		if err != nil {
			return 0, err
		}
		entities, err := r.entities()
		if err != nil {
			return 0, err
		}
		for _, e := range entities {
			if int(e) >= numEntities {
				return 0, corrupt("shard entity %d of %d", e, numEntities)
			}
		}
		if ok == (len(entities) == 0) {
			return 0, corrupt("shard entry verdict inconsistent with its entity list")
		}
		if _, dup := staged[key]; dup {
			return 0, corrupt("shard repeats a key")
		}
		staged[key] = selMemoEntry{entities: entities, ok: ok}
	}
	if len(r.data) != 0 {
		return 0, corrupt("%d trailing bytes", len(r.data))
	}
	for key, e := range staged {
		m.cache.Put(key, e)
	}
	return n, nil
}
