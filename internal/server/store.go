package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"setdiscovery"
)

// DefaultTTL is the idle lifetime of a session. With sliding TTL (the
// default) every touch — question fetch, answer, result, state export —
// slides the deadline forward by the TTL, so a slow-but-active interactive
// session never expires mid-discovery; with sliding off the deadline is
// fixed at creation (WithSlidingTTL).
const DefaultTTL = 30 * time.Minute

// DefaultMaxSessions bounds the number of live sessions a store accepts, so
// an abandoning client population cannot grow the process without limit
// before the TTL reaper catches up. A batch entry counts each of its member
// sessions against the bound, so N batched discoveries cost the same budget
// as N single ones.
const DefaultMaxSessions = 16384

// ErrStoreFull is returned by Put when the store holds MaxSessions
// unexpired sessions.
var ErrStoreFull = errors.New("server: session store is full")

// ErrKindMismatch is returned by PutWithID when the ID already names a live
// resource of the other kind: sessions and batches share the ID namespace,
// and an import must never destroy a batch through the session endpoint (or
// vice versa).
var ErrKindMismatch = errors.New("server: id names a live resource of a different kind")

// Stored is one live session — or one live batch of sessions — and its
// lock. The lock serialises interactive steps: a Session is a single-user
// state machine (and a Batch a single-user group of them), so handlers
// lock a Stored around Next/Answer/Result while the store itself stays free
// for other entries' traffic.
type Stored struct {
	// Mu serialises all Session/Batch calls. It is exported so handlers
	// (and tests) lock at the granularity of one question/answer exchange.
	Mu sync.Mutex
	// Session is the suspended discovery state machine. Exactly one of
	// Session and Batch is non-nil.
	Session *setdiscovery.Session
	// Batch is a suspended batch of sessions sharing one selection memo.
	Batch *setdiscovery.Batch
	// Collection is the registered name the entry was created over.
	Collection string
}

// Store is a TTL-bounded concurrent session store keyed by opaque IDs.
// Sessions expire after their idle TTL and are reaped lazily on every store
// operation — a serving process needs no background janitor goroutine to
// stay bounded, though Sweep may be called from one for promptness. The
// capacity bound counts sessions, not entries: a batch weighs its member
// count, so the store's budget is the number of live discoveries however
// they are grouped.
type Store struct {
	mu    sync.Mutex
	m     map[string]*storedEntry
	ttl   time.Duration
	max   int
	used  int              // weight sum of unexpired entries
	slide bool             // Get slides the deadline (default on)
	now   func() time.Time // injectable clock for expiry tests
}

type storedEntry struct {
	s       *Stored
	weight  int
	expires time.Time
}

// weight is the number of sessions an entry counts against the capacity.
func (s *Stored) weight() int {
	if s.Batch != nil {
		return s.Batch.Len()
	}
	return 1
}

// NewStore builds a store with the given idle TTL and capacity; zero values
// select DefaultTTL and DefaultMaxSessions.
func NewStore(ttl time.Duration, maxSessions int) *Store {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if maxSessions <= 0 {
		maxSessions = DefaultMaxSessions
	}
	return &Store{
		m:     make(map[string]*storedEntry),
		ttl:   ttl,
		max:   maxSessions,
		slide: true,
		now:   time.Now,
	}
}

// SetSliding selects between sliding deadlines (true, the default: every Get
// pushes the expiry TTL into the future, so an active session lives as long
// as its user keeps answering) and fixed deadlines (false: the expiry is
// set at Put and never extended — a hard wall-clock budget per discovery).
func (st *Store) SetSliding(on bool) {
	st.mu.Lock()
	st.slide = on
	st.mu.Unlock()
}

// newSessionID returns a 128-bit random opaque ID. IDs are capability
// tokens: knowing one is the only way to touch its session.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Put stores a new session or batch and returns its ID. It fails with
// ErrStoreFull when admitting the entry's sessions would exceed the
// capacity (so a batch needs room for every member, and a batch larger
// than the whole capacity is never admitted).
func (st *Store) Put(s *Stored) (string, error) {
	id, err := newSessionID()
	if err != nil {
		return "", err
	}
	w := s.weight()
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	// Reap only when at capacity: Get drops expired entries it touches, so
	// the common-case Put stays O(1) and the full sweep runs exactly when
	// its work can admit a new entry.
	if st.used+w > st.max {
		st.sweepLocked(now)
	}
	if st.used+w > st.max {
		return "", ErrStoreFull
	}
	st.used += w
	st.m[id] = &storedEntry{s: s, weight: w, expires: now.Add(st.ttl)}
	return id, nil
}

// Get returns the session for id and slides its expiry forward, or false
// when the ID is unknown or the session has expired.
func (st *Store) Get(id string) (*Stored, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	e, ok := st.m[id]
	if !ok {
		return nil, false
	}
	if now.After(e.expires) {
		st.used -= e.weight
		delete(st.m, id)
		return nil, false
	}
	if st.slide {
		e.expires = now.Add(st.ttl)
	}
	return e.s, true
}

// has reports whether id names an unexpired entry, without sliding its
// expiry.
func (st *Store) has(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	return ok && !st.now().After(e.expires)
}

// PutWithID stores a session or batch under a caller-chosen ID — the import
// half of state migration, where a session must keep its ID as it moves
// between engines so clients (and the router's affinity table) never see it
// change. An existing entry under the same ID is replaced, making a
// retried import idempotent. The capacity check is the same as Put's, net
// of any replaced entry's weight.
func (st *Store) PutWithID(id string, s *Stored) error {
	if id == "" {
		return errors.New("server: PutWithID needs a non-empty id")
	}
	w := s.weight()
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	freed := 0
	if old, ok := st.m[id]; ok && !now.After(old.expires) {
		if old.s.Kind() != s.Kind() {
			return ErrKindMismatch
		}
		freed = old.weight
	}
	if st.used-freed+w > st.max {
		st.sweepLocked(now)
		// The sweep may have reaped the replaced entry itself; recompute.
		freed = 0
		if old, ok := st.m[id]; ok {
			freed = old.weight
		}
	}
	if st.used-freed+w > st.max {
		return ErrStoreFull
	}
	if old, ok := st.m[id]; ok {
		st.used -= old.weight
	}
	st.used += w
	st.m[id] = &storedEntry{s: s, weight: w, expires: now.Add(st.ttl)}
	return nil
}

// Used returns the weight sum of unexpired entries: the number of live
// discoveries counted against the capacity, batch members included.
func (st *Store) Used() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
	return st.used
}

// Delete removes the session or batch for id; an absent ID is a no-op.
func (st *Store) Delete(id string) {
	st.mu.Lock()
	if e, ok := st.m[id]; ok {
		st.used -= e.weight
		delete(st.m, id)
	}
	st.mu.Unlock()
}

// DeleteIf removes the entry for id only when match accepts it, reporting
// whether a removal happened. Unlike Get-then-Delete it neither slides the
// entry's expiry nor touches entries of the wrong kind — the handlers use
// it so a batch ID sent to the session DELETE endpoint (or vice versa) is
// a true no-op.
func (st *Store) DeleteIf(id string, match func(*Stored) bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok || !match(e.s) {
		return false
	}
	st.used -= e.weight
	delete(st.m, id)
	return true
}

// Len returns the number of stored, unexpired entries (a batch is one
// entry; see Counts for the session/batch split).
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
	return len(st.m)
}

// Counts returns the number of unexpired single sessions and batches.
func (st *Store) Counts() (sessions, batches int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
	for _, e := range st.m {
		if e.s.Batch != nil {
			batches++
		} else {
			sessions++
		}
	}
	return sessions, batches
}

// Sweep evicts every expired session now and returns how many it removed.
func (st *Store) Sweep() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sweepLocked(st.now())
}

func (st *Store) sweepLocked(now time.Time) int {
	n := 0
	for id, e := range st.m {
		if now.After(e.expires) {
			st.used -= e.weight
			delete(st.m, id)
			n++
		}
	}
	return n
}
