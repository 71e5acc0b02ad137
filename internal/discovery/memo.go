package discovery

import (
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
// The store is a bounded clock-eviction cache (cache.NewBounded), so memory
// stays flat no matter how many distinct states a fleet's traffic touches; an
// evicted entry is recomputed on the next miss, never wrong. Concurrent
// misses on one key coalesce through a single-flight guard: the first session
// computes, later arrivals park on a channel and receive the same slice,
// instead of a thundering herd recomputing one hot lookahead.

// DefaultMemoBound is the entry cap a SelectionMemo gets when the caller does
// not specify one — matching setdiscd's default -cache-bound.
const DefaultMemoBound = 1 << 20

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
// entries with clock eviction; bound ≤ 0 selects DefaultMemoBound.
func NewSelectionMemo(bound int) *SelectionMemo {
	if bound <= 0 {
		bound = DefaultMemoBound
	}
	return &SelectionMemo{
		cache:    cache.NewBounded[selMemoEntry](bound),
		inflight: make(map[cache.Key]*memoFlight),
	}
}

// MemoStats is a point-in-time aggregate of a SelectionMemo's effectiveness.
type MemoStats struct {
	Hits      int64 // selections served from the memo
	Misses    int64 // lookups that found nothing (including coalesced waits)
	Evictions int64 // entries displaced by the clock sweep
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

// Len returns the number of memoised selections.
func (m *SelectionMemo) Len() int { return m.cache.Len() }

// memoTrailCap bounds a session's visited-key trail. The trail exists so a
// migrating session can carry the memo entries along its own discovery path
// (the snapshot memo-delta); the early, widely shared prefix states are the
// valuable ones, so once the cap is reached later keys are simply not
// recorded.
const memoTrailCap = 512

// selectShared is the memo-backed selection path of a session: serve a hit,
// coalesce onto an in-progress computation, or compute and publish; computed
// reports the last. The computing session runs the strategy on its own
// instance and scratch and is the one whose SelectionTime grows; hits and
// coalesced waits cost their session no selection time, which only affects
// the wall-clock accounting — never the question sequence.
func (m *SelectionMemo) selectShared(s *Session) (entities []dataset.Entity, ok, computed bool) {
	fp := s.cs.Fingerprint()
	key := cache.Key{Hi: fp.Hi, Lo: fp.Lo, Aux: s.opts.MemoAux}
	// Batch members keep no trail: a batch snapshot carries no memo delta.
	if s.opts.stats == nil && len(s.memoKeys) < memoTrailCap {
		s.memoKeys = append(s.memoKeys, key)
	}
	if e, ok := m.cache.Get(key); ok {
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

// Persisted/exported memo shards: a versioned, fingerprint-guarded binary
// encoding of a memo's hottest entries, reusing the session-state primitive
// codecs. One format serves all three transport layers of the fabric — the
// /v1/cache/shard export/import surface that warms a freshly added engine
// from a healthy peer, the -cache-persist file a restarted setdiscd reloads,
// and (minus the magic/fingerprint header, which the snapshot envelope
// already carries) the memo-delta section of a migrated session's snapshot.
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
// Decoders treat input as untrusted, like the session-state decoders: counts
// are bounded by the remaining input, entities are range-checked against the
// collection, a foreign collection fingerprint is rejected, and malformed
// input yields an error, never a panic (fuzz-enforced).

// memoShardMagic identifies a persisted selection-cache shard.
const memoShardMagic = "SDCS"

// memoShardVersion is the shard format version; decoders reject versions
// they do not know.
const memoShardVersion = 1

func (w *stateWriter) u64(v uint64) {
	w.buf = appendU64(w.buf, v)
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (r *stateReader) u64() (uint64, error) {
	if len(r.data) < 8 {
		return 0, corrupt("truncated word")
	}
	v := uint64(r.data[0])<<56 | uint64(r.data[1])<<48 | uint64(r.data[2])<<40 |
		uint64(r.data[3])<<32 | uint64(r.data[4])<<24 | uint64(r.data[5])<<16 |
		uint64(r.data[6])<<8 | uint64(r.data[7])
	r.data = r.data[8:]
	return v, nil
}

// EncodeMemoShard serializes up to max of the memo's entries — recently used
// ones first — guarded by c's content fingerprint. max ≤ 0 exports
// everything.
func EncodeMemoShard(c *dataset.Collection, m *SelectionMemo, max int) []byte {
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	w := &stateWriter{buf: make([]byte, 0, 512)}
	w.buf = append(w.buf, memoShardMagic...)
	w.u8(memoShardVersion)
	w.fingerprint(c.ContentFingerprint())
	appendMemoEntries(w, m.cache.Export(max))
	return w.buf
}

// DecodeMemoShard imports a shard encoded by EncodeMemoShard into m,
// rejecting shards from a different collection. It returns the number of
// entries imported.
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
	n, err := decodeMemoEntries(c, m, r)
	if err != nil {
		return 0, err
	}
	if len(r.data) != 0 {
		return 0, corrupt("%d trailing bytes", len(r.data))
	}
	return n, nil
}

// appendMemoEntries writes the count-prefixed entry list shared by shards and
// snapshot memo-deltas.
func appendMemoEntries(w *stateWriter, entries []cache.Entry[selMemoEntry]) {
	w.uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.u64(e.Key.Hi)
		w.u64(e.Key.Lo)
		w.u64(e.Key.Aux)
		w.bool(e.Val.ok)
		w.entities(e.Val.entities)
	}
}

// decodeMemoEntries reads a count-prefixed entry list into m, validating each
// entry against the collection. A key is content-addressed (a fingerprint
// plus an options hash), so importing an entry can at worst waste a slot —
// a session only consumes it after hashing its own state to the same key —
// but entities are still range-checked so no imported slice can hold IDs the
// collection cannot name.
func decodeMemoEntries(c *dataset.Collection, m *SelectionMemo, r *stateReader) (int, error) {
	n, err := r.count()
	if err != nil {
		return 0, err
	}
	imported := 0
	for i := 0; i < n; i++ {
		var key cache.Key
		if key.Hi, err = r.u64(); err != nil {
			return imported, err
		}
		if key.Lo, err = r.u64(); err != nil {
			return imported, err
		}
		if key.Aux, err = r.u64(); err != nil {
			return imported, err
		}
		ok, err := r.bool()
		if err != nil {
			return imported, err
		}
		entities, err := r.entities()
		if err != nil {
			return imported, err
		}
		for _, e := range entities {
			if int(e) >= c.DistinctEntities() {
				return imported, corrupt("shard entity %d of %d", e, c.DistinctEntities())
			}
		}
		if ok == (len(entities) == 0) {
			return imported, corrupt("shard entry verdict inconsistent with its entity list")
		}
		m.cache.Put(key, selMemoEntry{entities: entities, ok: ok})
		imported++
	}
	return imported, nil
}

// AppendMemoDelta appends the memo entries visited along the session's own
// discovery path (count-prefixed, same entry layout as a shard, no header —
// the snapshot envelope already carries version and fingerprint) and returns
// the extended buffer plus the number of entries written. A migrated session
// carries exactly the hot states it walked through, so the receiving engine
// serves the session's remaining questions — and every sibling on the same
// popular prefix — from its own memo.
func (s *Session) AppendMemoDelta(buf []byte) ([]byte, int) {
	w := &stateWriter{buf: buf}
	m := s.opts.Memo
	if m == nil || len(s.memoKeys) == 0 {
		w.uvarint(0)
		return w.buf, 0
	}
	entries := make([]cache.Entry[selMemoEntry], 0, len(s.memoKeys))
	seen := make(map[cache.Key]bool, len(s.memoKeys))
	for _, k := range s.memoKeys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if v, ok := m.cache.Peek(k); ok {
			entries = append(entries, cache.Entry[selMemoEntry]{Key: k, Val: v})
		}
	}
	appendMemoEntries(w, entries)
	return w.buf, len(entries)
}

// DecodeMemoDelta imports a memo-delta section written by AppendMemoDelta
// into m, with the same validation as DecodeMemoShard (the caller has already
// verified the envelope's collection fingerprint). The input must be exactly
// one delta section; trailing bytes are rejected.
func DecodeMemoDelta(c *dataset.Collection, m *SelectionMemo, data []byte) (int, error) {
	r := &stateReader{data: data}
	n, err := decodeMemoEntries(c, m, r)
	if err != nil {
		return 0, err
	}
	if len(r.data) != 0 {
		return 0, corrupt("%d trailing bytes", len(r.data))
	}
	return n, nil
}
