// Package router is the sharding tier in front of N discovery engines: the
// ROADMAP's step from one serving process to a fleet. It speaks the same
// /v1/ JSON protocol as internal/server, so clients cannot tell a router
// from an engine, and adds three behaviours an engine cannot provide:
//
//   - placement: create requests are routed by consistent-hashing the
//     collection name over the live backends, so each collection's sessions
//     (and their shared lookahead caches) concentrate on one engine and
//     adding a shard moves only ~1/N of the keyspace;
//   - affinity: session and batch requests are routed by the opaque ID the
//     create response carried — the router records which backend minted
//     which ID, so every later round-trip of a discovery lands on the
//     engine that holds its state;
//   - migration: because sessions are portable (GET/PUT …/state), draining
//     a backend moves its live sessions to their new ring owners through
//     snapshot export/import. Clients keep their session IDs; mid-discovery
//     users just keep answering, now against another engine — test-pinned
//     to produce the identical remaining question sequence.
//
// The router holds no discovery state of its own. It keeps one record per
// tracked resource, rebuilt from traffic and dropped on DELETE/expiry: the
// ID → backend affinity and, for fault tolerance, the resource's last
// checkpoint and the answers acknowledged since (resurrect.go). It keeps
// one record per backend too, holding the backend's health state and its
// stream-plane connection pool (stream.go). Engines remain the source of
// truth; the router's own routing state can be made durable with
// WithPersist (persist.go), and backend liveness is tracked by the active
// health loop (health.go) with retry/timeout discipline on every proxy path
// (retry.go).
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"setdiscovery/internal/server"
	"setdiscovery/internal/wireproto"
)

// vnodes is the number of virtual ring points per backend; enough that the
// keyspace splits evenly across a handful of engines.
const vnodes = 64

// maxProxyBody bounds request and response bodies buffered through the
// router; state exports of large backtracking sessions are the big case.
const maxProxyBody = 64 << 20

// ErrNoBackend reports an operation naming an engine the router does not
// track. Callers classify it with errors.Is — the wrapped message carries
// the backend name.
var ErrNoBackend = errors.New("router: no backend")

// ErrBackendExists reports AddBackend re-registering a name that is already
// present under the identical URL. Callers replaying static -route flags
// over a persisted backend set (cmd/setdiscd restart) classify it with
// errors.Is and move on; a name collision with a *different* URL is a plain
// error, never this sentinel.
var ErrBackendExists = errors.New("router: backend already registered")

// Option configures a Router.
type Option func(*Router)

// WithLogf routes the router's operational logging (default: discarded).
func WithLogf(f func(format string, args ...any)) Option {
	return func(rt *Router) { rt.logf = f }
}

// maxIdleConnsPerHost sizes the JSON plane's keep-alive pool per backend.
// net/http's default of 2 makes a burst of concurrent proxied requests
// churn dials (each request over the idle limit pays a fresh TCP handshake
// and its connection is thrown away afterwards); a router fans many clients
// into few engines, so the pool is sized for that fan-in.
const maxIdleConnsPerHost = 64

// DefaultOwnerTTL is how long an affinity entry survives without traffic.
// Engines reap idle sessions on their own TTL; the router cannot observe
// that, so it ages out its ID→backend entries independently — the bound
// that keeps the affinity table from growing with every session ever
// created. It is twice the engines' default session TTL, so the router
// forgets an ID only well after the engine has: an aged-out entry for a
// still-live session would answer 404 at the router even though the engine
// still holds the state.
const DefaultOwnerTTL = 2 * server.DefaultTTL

// ownerSweepInterval gates how often the affinity table is scanned for
// aged-out entries.
const ownerSweepInterval = time.Minute

// backend is one discovery engine behind the router. The health fields are
// the probe state machine's (health.go); they are guarded by the router
// lock like everything else here.
type backend struct {
	name     string
	base     *url.URL
	stream   *streamPool // stream-plane connections; nil = HTTP only (stream.go)
	draining bool

	state     healthState
	fails     int       // consecutive probe failures (suspect counting)
	successes int       // consecutive probe successes (recovery counting)
	flaps     int       // recent deaths within the flap window (damping)
	lastDeath time.Time // when the backend was last declared dead
}

// eligible reports whether b takes placements and may warm a newcomer: not
// draining, and not declared dead (or still working its way back through
// recovery) by the health loop. A suspect backend stays eligible — that is
// the flap damping: it keeps serving until the failure streak crosses the
// threshold. Callers hold the router lock.
func (b *backend) eligible() bool {
	return !b.draining && b.state != stateDead && b.state != stateRecovering
}

// owner records where a live resource's state is held, how to address it
// for migration, and how to rebuild it elsewhere. lastSeen ages the entry
// out once traffic stops (the engine reaps the session on its own TTL; the
// router cannot observe that), and its checkpoint and journal with it.
type owner struct {
	b          *backend
	kindPath   string // "sessions" or "batches"
	collection string
	lastSeen   time.Time

	resumedFrom      string // dead backend this resource was resurrected off, until announced
	resumedQuestions int    // resumed question count at resurrection (-1 unknown)

	// answerMu orders the resource's answer rounds with each other and
	// with its resurrection and migration (core.go lockAnswers). The
	// checkpoint and the journal on top of it (resurrect.go) are guarded by
	// the router lock and written under answerMu.
	answerMu      sync.Mutex
	snap          []byte   // the engine's snapshot at the last capture; nil before the first
	snapQuestions int      // member-0 question count at that capture; -1 unknown
	sinceSnap     int      // answered rounds since the last capture
	journal       [][]byte // acknowledged answer request bodies since the last capture, in apply order
	gap           bool     // an answer's fate is unknown since the last capture: journal no further
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash uint64
	b    *backend
}

// Router is an HTTP front consistent-hashing collections across backend
// engines, with per-session affinity and snapshot/restore migration. All
// methods are safe for concurrent use.
type Router struct {
	mu       sync.RWMutex
	backends map[string]*backend
	ring     []ringPoint // sorted by hash, eligible backends only
	owners   map[string]*owner

	client    *http.Client
	logf      func(format string, args ...any)
	started   time.Time
	lastSweep time.Time
	now       func() time.Time // injectable clock for aging tests

	health       HealthConfig  // probe loop tuning (health.go)
	snapEvery    int           // capture cadence in answered rounds (resurrect.go)
	proxyTimeout time.Duration // per-attempt deadline on client proxy paths

	persistPath string      // WithPersist target; "" = in-memory only
	log         *persistLog // nil when persistence is off or failed
	persistErr  error

	metrics routerMetrics // /v1/metrics counters and latency windows (metrics.go)
}

// New builds an empty router; add engines with AddBackend. With WithPersist
// the previous incarnation's backend set and affinity table are replayed
// from the log before New returns (check PersistError), so a restarted
// router resumes routing every live session without a rediscovery stampede.
func New(opts ...Option) *Router {
	rt := &Router{
		backends: make(map[string]*backend),
		owners:   make(map[string]*owner),
		// The JSON proxy plane's shared transport: keep-alive connections
		// sized to the fan-in instead of net/http's per-host default of 2,
		// so bursts re-use warm connections rather than re-dialing. The
		// client has no global timeout: every call site threads a
		// per-attempt context (proxyTimeout for client traffic, opTimeout
		// for migration and warming, the probe timeout for health checks).
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        0, // no global cap; the per-host bound governs
			MaxIdleConnsPerHost: maxIdleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		}},
		logf:         func(string, ...any) {},
		started:      time.Now(),
		now:          time.Now,
		health:       HealthConfig{}.withDefaults(),
		snapEvery:    DefaultSnapshotEvery,
		proxyTimeout: DefaultProxyTimeout,
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.persistPath != "" {
		rt.loadPersisted()
	}
	return rt
}

// loadPersisted opens the WithPersist log, adopts its replayed state, and
// keeps the handle for journaling. Failures disable persistence (recorded
// in PersistError) but never the router.
func (rt *Router) loadPersisted() {
	log, st, err := openLog(rt.persistPath, rt.logf)
	if err != nil {
		rt.persistErr = err
		rt.logf("router: persistence disabled: %v", err)
		return
	}
	rt.log = log
	now := rt.now()
	names := make([]string, 0, len(st.backends))
	for name := range st.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	adopted := 0
	for _, name := range names {
		lb := st.backends[name]
		u, err := url.Parse(lb.url)
		if err != nil || u.Scheme == "" || u.Host == "" {
			rt.logf("router: persist log: dropping backend %q with invalid URL %q", name, lb.url)
			continue
		}
		rt.backends[name] = &backend{name: name, base: u, draining: lb.draining}
		adopted++
	}
	rt.rebuildRingLocked()
	owners := 0
	for id, lo := range st.owners {
		b, ok := rt.backends[lo.backend]
		if !ok {
			continue
		}
		rt.owners[id] = &owner{b: b, kindPath: lo.kindPath, collection: lo.collection, lastSeen: now}
		owners++
	}
	if adopted+owners > 0 {
		rt.logf("router: replayed persist log %s: %d backend(s), %d affinity entries", rt.persistPath, adopted, owners)
	}
}

// persistOwnerLocked journals an affinity entry; callers hold rt.mu (the
// log's own lock orders after it).
func (rt *Router) persistOwnerLocked(id string, own *owner) {
	rt.log.append(record{op: opSetOwner, id: id, name: own.b.name,
		kindPath: own.kindPath, collection: own.collection})
}

// sweepOwnersLocked drops owner entries that have seen no traffic for
// DefaultOwnerTTL, at most once per ownerSweepInterval — the bound that keeps the
// table, checkpoints and journals included, proportional to *live*
// sessions, not all sessions ever created.
func (rt *Router) sweepOwnersLocked(now time.Time) {
	if now.Sub(rt.lastSweep) < ownerSweepInterval {
		return
	}
	rt.lastSweep = now
	for id, own := range rt.owners {
		if now.Sub(own.lastSeen) > DefaultOwnerTTL {
			delete(rt.owners, id)
			rt.log.append(record{op: opDropOwner, id: id})
		}
	}
}

// AddBackend registers an engine under a stable name. Adding a shard
// re-partitions the ring and migrates any tracked session whose collection
// now hashes to a different owner — the scale-out half of live migration.
// Migration failures are logged and leave the session on its old backend;
// affinity keeps it served there, so a failed rebalance degrades placement,
// never correctness.
//
// The new engine is also warmed: for every collection an established peer
// serves, the peer's selection-cache shard is copied over (GET → PUT
// /v1/cache/shard), so the first sessions the newcomer serves hit a
// populated memo instead of paying the cold-start selection cost. Only
// eligible peers are asked, so warming never waits on an engine the health
// loop declared dead. Warming is best-effort performance state — failures
// are logged, never returned.
func (rt *Router) AddBackend(name, rawURL string) error {
	if name == "" {
		return errors.New("router: backend name must be non-empty")
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("router: invalid backend URL %q", rawURL)
	}
	rt.mu.Lock()
	if prev, ok := rt.backends[name]; ok {
		rt.mu.Unlock()
		if prev.base.String() == u.String() {
			return fmt.Errorf("%w: %q", ErrBackendExists, name)
		}
		return fmt.Errorf("router: backend %q already registered with different URL %s", name, prev.base)
	}
	nb := &backend{name: name, base: u}
	rt.backends[name] = nb
	rt.rebuildRingLocked()
	rt.log.append(record{op: opAddBackend, name: name, url: u.String()})
	moves := rt.misplacedLocked()
	var peers []*backend
	for _, b := range rt.backends {
		if b != nb && b.eligible() {
			peers = append(peers, b)
		}
	}
	rt.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
	rt.migrateAll(moves)
	rt.warmBackend(nb, peers)
	return nil
}

// warmBackend copies selection-cache shards from the first responsive peer
// onto a freshly added engine: list the peer's collections, then for each
// one pipe GET /v1/cache/shard into PUT /v1/cache/shard on the newcomer. A
// peer that cannot even list collections is skipped in favour of the next;
// per-collection failures (e.g. the newcomer does not hold that collection)
// are logged and skipped. Purely advisory: nothing here affects AddBackend's
// outcome.
func (rt *Router) warmBackend(dst *backend, peers []*backend) {
	for _, src := range peers {
		cols, err := rt.listCollections(src)
		if err != nil {
			rt.logf("router: warming %s: listing collections on %s: %v", dst.name, src.name, err)
			continue
		}
		warmed := 0
		for _, col := range cols {
			n, err := rt.copyCacheShard(src, dst, col.Name)
			if err != nil {
				rt.logf("router: warming %s: shard %q from %s: %v", dst.name, col.Name, src.name, err)
				continue
			}
			warmed += n
		}
		rt.logf("router: warmed %s from %s: %d cache entries across %d collections",
			dst.name, src.name, warmed, len(cols))
		return
	}
}

// listCollections fetches a backend's collection registry.
func (rt *Router) listCollections(b *backend) ([]server.CollectionInfo, error) {
	status, body, err := rt.doProxy(context.Background(), http.MethodGet, b, "/v1/collections", "", "", nil, opTimeout)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("backend answered %d: %s", status, trim(body))
	}
	var cols []server.CollectionInfo
	if err := json.Unmarshal(body, &cols); err != nil {
		return nil, err
	}
	return cols, nil
}

// copyCacheShard exports one collection's selection-cache shard from
// src and imports it on dst, returning how many entries dst merged.
func (rt *Router) copyCacheShard(src, dst *backend, collection string) (int, error) {
	q := url.Values{"collection": {collection}}.Encode()
	status, shard, err := rt.doProxy(context.Background(), http.MethodGet, src, "/v1/cache/shard", q, "", nil, opTimeout)
	if err != nil {
		return 0, fmt.Errorf("export: %w", err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("export: backend answered %d: %s", status, trim(shard))
	}
	istatus, ibody, err := rt.doProxy(context.Background(), http.MethodPut, dst, "/v1/cache/shard", q, "application/octet-stream", shard, opTimeout)
	if err != nil {
		return 0, fmt.Errorf("import: %w", err)
	}
	if istatus != http.StatusOK {
		return 0, fmt.Errorf("import: backend answered %d: %s", istatus, trim(ibody))
	}
	var ack server.CacheShardImportResponse
	if err := json.Unmarshal(ibody, &ack); err != nil {
		return 0, fmt.Errorf("import: %w", err)
	}
	return ack.Imported, nil
}

// Drain marks a backend as accepting no new placements and migrates every
// tracked session it holds to the remaining engines, returning how many
// resources moved. After a successful drain the engine can be shut down;
// its former sessions keep their IDs and continue on their new owners.
func (rt *Router) Drain(name string) (int, error) {
	rt.mu.Lock()
	b, ok := rt.backends[name]
	if !ok {
		rt.mu.Unlock()
		return 0, fmt.Errorf("%w %q", ErrNoBackend, name)
	}
	b.draining = true
	rt.rebuildRingLocked()
	if len(rt.ring) == 0 {
		b.draining = false
		rt.rebuildRingLocked()
		rt.mu.Unlock()
		return 0, fmt.Errorf("router: cannot drain %q: no other live backend", name)
	}
	moves := rt.misplacedLocked()
	rt.log.append(record{op: opSetDraining, name: name, flag: true})
	rt.mu.Unlock()
	return rt.migrateAll(moves), nil
}

// RemoveBackend forgets a (typically drained) engine and closes its stream
// connections. Owner entries still pointing at it are dropped; any state
// not migrated off first is lost to the router.
func (rt *Router) RemoveBackend(name string) error {
	rt.mu.Lock()
	b, ok := rt.backends[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("%w %q", ErrNoBackend, name)
	}
	delete(rt.backends, name)
	for id, own := range rt.owners {
		if own.b == b {
			delete(rt.owners, id)
		}
	}
	rt.rebuildRingLocked()
	// One remove record: the log mirror cascades the owner drops.
	rt.log.append(record{op: opRemoveBackend, name: name})
	pool := b.stream
	rt.mu.Unlock()
	pool.closeAll()
	return nil
}

// rebuildRingLocked recomputes the virtual-node ring over the eligible
// backends.
func (rt *Router) rebuildRingLocked() {
	rt.ring = rt.ring[:0]
	for _, b := range rt.backends {
		if !b.eligible() {
			continue
		}
		for i := 0; i < vnodes; i++ {
			rt.ring = append(rt.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", b.name, i)), b: b})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool {
		if rt.ring[i].hash != rt.ring[j].hash {
			return rt.ring[i].hash < rt.ring[j].hash
		}
		return rt.ring[i].b.name < rt.ring[j].b.name
	})
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	// FNV alone has poor avalanche on short, similar strings ("a#0".."a#63"
	// differ in a few trailing bytes), which clusters a backend's virtual
	// nodes into one contiguous arc and hands nearly the whole keyspace to
	// one engine. The splitmix64 finalizer scatters them.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ringOwner returns the backend the key's collection hashes to, or nil
// when no live backend exists.
func (rt *Router) ringOwner(key string) *backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ringOwnerLocked(key)
}

// ringOwnerLocked is ringOwner for callers holding rt.mu.
func (rt *Router) ringOwnerLocked(key string) *backend {
	if len(rt.ring) == 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.ring[i].b
}

// move is one pending migration, with the endpoints pinned under the lock
// that planned it.
type move struct {
	id         string
	src, dest  *backend
	kindPath   string
	collection string
}

// misplacedLocked lists every tracked resource whose current backend is no
// longer its ring owner (drained, or displaced by a new shard).
func (rt *Router) misplacedLocked() []move {
	var moves []move
	for id, own := range rt.owners {
		dest := rt.ringOwnerLocked(own.collection)
		if dest != nil && dest != own.b {
			moves = append(moves, move{id: id, src: own.b, dest: dest,
				kindPath: own.kindPath, collection: own.collection})
		}
	}
	return moves
}

// migrateAll performs the moves, returning how many resources actually
// moved (sessions found already expired on export count as nothing moved,
// not as a success).
func (rt *Router) migrateAll(moves []move) int {
	n := 0
	for _, m := range moves {
		moved, err := rt.migrate(m)
		if err != nil {
			rt.logf("router: migrating %s %s from %s to %s: %v",
				strings.TrimSuffix(m.kindPath, "s"), m.id, m.src.name, m.dest.name, err)
			continue
		}
		if moved {
			n++
			rt.metrics.migrations.Add(1)
		}
	}
	return n
}

// migrate moves one live resource between engines through the portable
// state protocol: export from the old owner, import under the same ID on
// the new one, delete the original. A session that already expired is
// simply forgotten. The freshly exported state also becomes the resource's
// checkpoint — the "on demand at drain" capture, so a later crash of the
// destination resurrects from it.
func (rt *Router) migrate(m move) (bool, error) {
	moved, err := rt.transfer(m)
	if !moved || err != nil {
		return moved, err
	}
	// Best-effort: remove the original so the drained engine frees its slot
	// (and a half-dead engine cannot serve a stale twin if traffic somehow
	// reaches it directly).
	if dstatus, _, derr := rt.doProxy(context.Background(), http.MethodDelete, m.src, "/v1/"+m.kindPath+"/"+m.id, "", "", nil, opTimeout); derr != nil || dstatus >= 300 {
		rt.logf("router: deleting migrated %s %s from %s: status %d, %v", kindNoun(m.kindPath), m.id, m.src.name, dstatus, derr)
	}
	return true, nil
}

// transfer is migrate's export → import → owner flip. It holds the
// resource's answer lock throughout, so no answer is applied on the old
// owner after its state left: a round that waits for the lock is forwarded
// to the new owner.
func (rt *Router) transfer(m move) (bool, error) {
	own := rt.lockAnswers(m.id)
	if own == nil {
		return false, nil // forgotten meanwhile
	}
	defer own.answerMu.Unlock()
	rt.mu.RLock()
	onSrc := rt.owners[m.id] == own && own.b == m.src
	rt.mu.RUnlock()
	if !onSrc {
		return false, nil // dropped or moved meanwhile (resurrection, another migration)
	}
	ctx := context.Background()
	status, body, err := rt.doProxy(ctx, http.MethodGet, m.src, "/v1/"+m.kindPath+"/"+m.id+"/state", "", "", nil, opTimeout)
	if err != nil {
		return false, fmt.Errorf("export: %w", err)
	}
	if status == http.StatusNotFound {
		// Expired or deleted behind our back: nothing to move.
		rt.settle(m.id, status, false, false, nil, nil)
		return false, nil
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("export: backend answered %d: %s", status, trim(body))
	}
	var state server.StateResponse
	if err := json.Unmarshal(body, &state); err != nil {
		return false, fmt.Errorf("export: %w", err)
	}
	rt.capture(m.id, state.Collection, state.State, -1)
	if _, err := rt.importState(ctx, m.id, m.kindPath, state.Collection, state.State, func() *backend { return m.dest }); err != nil {
		return false, err
	}
	rt.mu.Lock()
	if rt.owners[m.id] == own && own.b == m.src {
		own.b = m.dest
		rt.persistOwnerLocked(m.id, own)
	}
	rt.mu.Unlock()
	return true, nil
}

func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// readAllBounded buffers a request or response body under the proxy cap.
func readAllBounded(r io.Reader) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r, maxProxyBody))
}

// Handler returns the router's HTTP handler: the full engine protocol
// (versioned and legacy-alias paths), plus the router admin endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"/v1", ""} {
		mux.HandleFunc("POST "+prefix+"/collections/{collection}/sessions", rt.handleCreate("sessions"))
		mux.HandleFunc("POST "+prefix+"/collections/{collection}/batches", rt.handleCreate("batches"))
		mux.HandleFunc("GET "+prefix+"/collections", rt.handleCollections)
		mux.HandleFunc(prefix+"/sessions/{id}/{rest...}", rt.handleResource("sessions"))
		mux.HandleFunc(prefix+"/sessions/{id}", rt.handleResource("sessions"))
		mux.HandleFunc(prefix+"/batches/{id}/{rest...}", rt.handleResource("batches"))
		mux.HandleFunc(prefix+"/batches/{id}", rt.handleResource("batches"))
		mux.HandleFunc("GET "+prefix+"/healthz", rt.handleHealthz)
		mux.HandleFunc("GET "+prefix+"/stats", rt.handleStats)
		mux.HandleFunc("GET "+prefix+"/metrics", rt.handleMetrics)
	}
	mux.HandleFunc("GET /v1/router/backends", rt.handleListBackends)
	mux.HandleFunc("POST /v1/router/backends/{name}/drain", rt.handleDrain)
	return mux
}

// handleCreate places a new session or batch on the collection's ring owner
// and learns the minted ID from the response, establishing affinity. The
// forwarded request always asks for an inline snapshot, so a resource is
// resurrectable from the moment it exists — a crash before the first answer
// loses nothing. Creation is non-idempotent (each attempt mints a new ID),
// so it is single-shot: failures degrade to a structured error carrying
// Retry-After advice rather than silently minting twins.
func (rt *Router) handleCreate(kindPath string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		collection := r.PathValue("collection")
		reqBody, err := readAllBounded(r.Body)
		if err != nil {
			rt.writeError(w, http.StatusBadRequest, err)
			return
		}
		b := rt.ringOwner(collection)
		if b == nil {
			rt.writeUnavailable(w, errNoLiveBackend)
			return
		}
		rawQuery, strip := addIncludeState(r.URL.RawQuery)
		status, body, err := rt.doProxy(r.Context(), r.Method, b, r.URL.Path, rawQuery,
			r.Header.Get("Content-Type"), reqBody, rt.proxyTimeout)
		if err != nil {
			w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterSeconds()))
			rt.writeError(w, http.StatusBadGateway, err)
			return
		}
		if status == http.StatusCreated {
			var created struct {
				SessionID string `json:"session_id"`
				BatchID   string `json:"batch_id"`
			}
			if err := json.Unmarshal(body, &created); err == nil {
				id := created.SessionID
				if kindPath == "batches" {
					id = created.BatchID
				}
				if id != "" {
					rt.adopt(id, b, kindPath, collection)
					body, _ = rt.captureInline(id, collection, body, strip)
				}
			}
		}
		writeRaw(w, status, body)
	}
}

// handleResource forwards session/batch traffic to the backend that owns
// the ID. A 404 from the backend (expired) or a DELETE drops the affinity
// entry; an untracked ID is answered 404 without bothering any engine.
//
// The method decides the failure policy. GET/PUT/DELETE are idempotent and
// ride the retry loop, re-resolving the owner before every attempt — a
// resurrection or recovery mid-retry redirects the next attempt to the new
// owner. POST (answers) is single-shot: a lost response leaves the answer's
// fate unknown, so the client must disambiguate by re-fetching the question
// rather than the router re-sending blind. An answer runs under the
// resource's answer lock; an acknowledged one joins the answer journal, or
// carries the snapshot piggyback every SnapshotEvery rounds (resurrect.go).
// A state import (PUT …/state) replaces the resource's state, so it runs
// under the same lock and becomes the new checkpoint. Any response after a
// crash resurrection is stamped with the ResumedHeader.
func (rt *Router) handleResource(kindPath string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		reqBody, err := readAllBounded(r.Body)
		if err != nil {
			rt.writeError(w, http.StatusBadRequest, err)
			return
		}
		answer := r.Method == http.MethodPost
		imports := r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/state")
		rte, err := rt.resolve(id, kindPath, answer)
		defer rte.release()
		if rte.b == nil {
			// One special case: a state import may target an ID the router
			// has never seen — an external restore. Place it by the
			// collection named in the body.
			if imports {
				rt.handleExternalImport(w, r, kindPath, id, reqBody)
				return
			}
			rt.writeFailure(w, err)
			return
		}
		rawQuery, strip := r.URL.RawQuery, false
		if rte.wantSnap {
			rawQuery, strip = addIncludeState(rawQuery)
		}
		contentType := r.Header.Get("Content-Type")
		var status int
		var body []byte
		round := reqBody // what an acknowledged answer adds to the journal
		if answer {
			if err != nil {
				// The owner is down and this resource has not (yet) been
				// resurrected elsewhere: degrade gracefully instead of
				// blind-firing a non-idempotent answer at a corpse.
				rt.writeFailure(w, err)
				return
			}
			status, body, err = rt.doProxy(r.Context(), r.Method, rte.b, r.URL.Path, rawQuery,
				contentType, reqBody, rt.proxyTimeout)
			if err != nil {
				rt.settle(id, 0, false, false, rte.own, nil)
				w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterSeconds()))
				rt.writeError(w, http.StatusBadGateway, err)
				return
			}
			if status == http.StatusOK && rte.wantSnap {
				var captured bool
				if body, captured = rt.captureInline(id, rte.collection, body, strip); captured {
					round = nil
				}
			}
		} else {
			if imports {
				if own := rt.lockAnswers(id); own != nil {
					defer own.answerMu.Unlock()
				}
			}
			resolve := func() *backend {
				cur, err := rt.resolve(id, kindPath, false)
				if err != nil {
					return nil
				}
				return cur.b
			}
			status, body, err = rt.proxyRetry(r.Context(), r.Method, resolve, r.URL.Path, rawQuery,
				contentType, reqBody, rt.proxyTimeout)
			if err != nil {
				if errors.Is(err, errNoLiveBackend) {
					rt.writeUnavailable(w, fmt.Errorf("backend holding %s %s is down",
						kindNoun(kindPath), id))
				} else {
					rt.writeError(w, http.StatusBadGateway, err)
				}
				return
			}
			var req server.ImportStateRequest
			if imports && status == http.StatusOK && json.Unmarshal(reqBody, &req) == nil && len(req.State) > 0 {
				rt.capture(id, req.Collection, req.State, -1)
			}
		}
		if notice := rt.settle(id, status, r.Method == http.MethodDelete, true, rte.own, round); notice != "" {
			w.Header().Set(ResumedHeader, notice)
		}
		writeRaw(w, status, body)
	}
}

// writeFailure answers a failed client exchange on the JSON plane: a core
// failure with its status (404 unknown ID, 503 dead owner), no live
// backend as 503, anything else as 502. A 503 carries Retry-After.
func (rt *Router) writeFailure(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var re *wireproto.RemoteError
	if errors.As(err, &re) {
		status, err = re.Status, errors.New(re.Msg)
	} else if errors.Is(err, errNoLiveBackend) {
		status = http.StatusServiceUnavailable
	}
	if status == http.StatusServiceUnavailable {
		rt.writeUnavailable(w, err)
		return
	}
	rt.writeError(w, status, err)
}

// handleExternalImport routes a PUT …/state for an ID the router does not
// know: the body names the collection, whose ring owner receives the
// import, and the router starts tracking the ID. The import re-sends the
// same snapshot bytes on every attempt, so it rides the retry policy; the
// imported state doubles as the resource's first checkpoint.
func (rt *Router) handleExternalImport(w http.ResponseWriter, r *http.Request, kindPath, id string, body []byte) {
	var req server.ImportStateRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Collection == "" {
		rt.writeError(w, http.StatusBadRequest, errors.New("state import needs a JSON body naming its collection"))
		return
	}
	var b *backend
	status, respBody, err := rt.proxyRetry(r.Context(), r.Method, func() *backend {
		b = rt.ringOwner(req.Collection)
		return b
	}, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body, opTimeout)
	if err != nil {
		rt.writeFailure(w, err)
		return
	}
	if status == http.StatusOK {
		rt.adopt(id, b, kindPath, req.Collection)
		if len(req.State) > 0 {
			rt.capture(id, req.Collection, req.State, -1)
		}
	}
	writeRaw(w, status, respBody)
}

// handleCollections serves the collection registry from any live backend
// (all engines register the same collections in a homogeneous fleet),
// retried across ring changes.
func (rt *Router) handleCollections(w http.ResponseWriter, r *http.Request) {
	resolve := func() *backend {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		if len(rt.ring) > 0 {
			return rt.ring[0].b
		}
		return nil
	}
	status, body, err := rt.proxyRetry(r.Context(), r.Method, resolve, r.URL.Path, r.URL.RawQuery,
		"", nil, rt.proxyTimeout)
	if err != nil {
		rt.writeFailure(w, err)
		return
	}
	writeRaw(w, status, body)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	live := len(rt.ring) > 0
	rt.mu.RUnlock()
	if !live {
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("no live backend"))
		return
	}
	writeJSON(w, http.StatusOK, server.HealthzResponse{Status: "ok"})
}

// statsProbeTimeout bounds each backend's stats probe: a dead engine (e.g.
// drained and shut down, still registered) must cost the monitoring
// endpoint a couple of seconds, not the client's full 30s timeout.
const statsProbeTimeout = 2 * time.Second

// handleStats aggregates every live backend's /v1/stats into one fleet
// view; per-backend rows keep the detail. Backends are probed concurrently
// with a short per-probe timeout so one dead engine cannot stall the
// endpoint.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	backends := make([]*backend, 0, len(rt.backends))
	rows := make(map[string]BackendStats, len(rt.backends))
	for _, b := range rt.backends {
		backends = append(backends, b)
		rows[b.name] = BackendStats{Name: b.name, URL: b.base.String(),
			Draining: b.draining, Health: b.state.String()}
	}
	tracked := len(rt.owners)
	rt.mu.RUnlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].name < backends[j].name })

	resp := RouterStatsResponse{
		Status:          "ok",
		UptimeSeconds:   int64(time.Since(rt.started) / time.Second),
		TrackedSessions: tracked,
		Backends:        make([]BackendStats, len(backends)),
	}
	var wg sync.WaitGroup
	for i, b := range backends {
		resp.Backends[i] = rows[b.name]
		wg.Add(1)
		go func(row *BackendStats, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), statsProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.JoinPath("v1", "stats").String(), nil)
			if err != nil {
				return
			}
			sresp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			body, rerr := io.ReadAll(io.LimitReader(sresp.Body, maxProxyBody))
			sresp.Body.Close()
			var stats server.StatsResponse
			if rerr == nil && sresp.StatusCode == http.StatusOK && json.Unmarshal(body, &stats) == nil {
				row.Alive = true
				row.Sessions = stats.Sessions
				row.Batches = stats.Batches
				row.LiveDiscoveries = stats.LiveDiscoveries
				for _, col := range stats.Collections {
					row.CacheHits += col.Cache.Hits
					row.CacheMisses += col.Cache.Misses
					row.CacheEvictions += col.Cache.Evictions
					row.CacheCoalesced += col.Cache.Coalesced
					row.CacheEntries += col.Cache.Entries
				}
			}
		}(&resp.Backends[i], b)
	}
	wg.Wait()
	for _, row := range resp.Backends {
		resp.Sessions += row.Sessions
		resp.Batches += row.Batches
		resp.LiveDiscoveries += row.LiveDiscoveries
		resp.CacheHits += row.CacheHits
		resp.CacheMisses += row.CacheMisses
		resp.CacheEvictions += row.CacheEvictions
		resp.CacheCoalesced += row.CacheCoalesced
		resp.CacheEntries += row.CacheEntries
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleListBackends(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	out := make([]BackendStats, 0, len(rt.backends))
	counts := make(map[string]int)
	for _, own := range rt.owners {
		counts[own.b.name]++
	}
	for _, b := range rt.backends {
		out = append(out, BackendStats{
			Name: b.name, URL: b.base.String(), Draining: b.draining,
			Alive:  b.state == stateHealthy || b.state == stateSuspect,
			Health: b.state.String(), Sessions: counts[b.name],
		})
	}
	rt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	migrated, err := rt.Drain(name)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrNoBackend) {
			status = http.StatusNotFound
		}
		rt.writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, DrainResponse{Backend: name, Migrated: migrated})
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		rt.logf("router: %v", err)
	}
	writeJSON(w, status, server.ErrorResponse{Error: err.Error()})
}

// RouterStatsResponse is the fleet view served by the router's GET
// /v1/stats: per-backend liveness and load plus the aggregate. The cache_*
// fields sum every backend's per-collection selection-cache counters — the
// fleet-wide effectiveness of the shared-selection fabric.
type RouterStatsResponse struct {
	Status          string         `json:"status"`
	UptimeSeconds   int64          `json:"uptime_seconds"`
	Sessions        int            `json:"sessions"`
	Batches         int            `json:"batches"`
	LiveDiscoveries int            `json:"live_discoveries"`
	TrackedSessions int            `json:"tracked_sessions"`
	CacheHits       int64          `json:"cache_hits"`
	CacheMisses     int64          `json:"cache_misses"`
	CacheEvictions  int64          `json:"cache_evictions"`
	CacheCoalesced  int64          `json:"cache_coalesced"`
	CacheEntries    int            `json:"cache_entries"`
	Backends        []BackendStats `json:"backends"`
}

// BackendStats is one engine's row in the fleet view; its cache counters
// are summed over the engine's collections. Health is the probe state
// machine's verdict (healthy/suspect/dead/recovering). In GET
// /v1/router/backends, Alive is read from the same state machine: true
// while the backend is healthy or suspect, the two states the router still
// forwards to. In GET /v1/stats it is that request's own stats-probe
// outcome, which can disagree with Health for at most one probe round.
type BackendStats struct {
	Name            string `json:"name"`
	URL             string `json:"url"`
	Alive           bool   `json:"alive"`
	Draining        bool   `json:"draining"`
	Health          string `json:"health"`
	Sessions        int    `json:"sessions"`
	Batches         int    `json:"batches"`
	LiveDiscoveries int    `json:"live_discoveries"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	CacheEvictions  int64  `json:"cache_evictions"`
	CacheCoalesced  int64  `json:"cache_coalesced"`
	CacheEntries    int    `json:"cache_entries"`
}

// DrainResponse reports a drain's outcome (POST
// /v1/router/backends/{name}/drain).
type DrainResponse struct {
	Backend  string `json:"backend"`
	Migrated int    `json:"migrated"`
}
