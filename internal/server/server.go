// Package server is the HTTP serving layer over resumable discovery
// sessions: the ROADMAP's step from a library whose Algorithm 2 loop calls
// an oracle function to a service whose question/answer round-trips cross a
// network boundary.
//
// A Server holds a registry of named collections (each optionally paired
// with a prebuilt decision tree) and TTL-bounded stores of live sessions
// and batches keyed by opaque IDs. The JSON protocol is versioned under
// /v1/ (see wire.go); the pre-versioning unversioned routes remain mounted
// as thin aliases of the same handlers, pinned by a compatibility test
// suite, so existing clients keep working:
//
//	GET    /v1/collections                            list collections
//	GET    /v1/healthz                                liveness probe
//	GET    /v1/stats                                  load/uptime/collection stats
//	GET    /v1/cache/shard?collection=NAME            export a warm selection-cache shard
//	PUT    /v1/cache/shard?collection=NAME            import a selection-cache shard
//	POST   /v1/collections/{collection}/sessions      create a session
//	GET    /v1/sessions/{id}/question                 re-fetch the question
//	POST   /v1/sessions/{id}/answer                   answer, get next question
//	GET    /v1/sessions/{id}/result                   outcome / progress
//	GET    /v1/sessions/{id}/state                    export portable state
//	PUT    /v1/sessions/{id}/state                    import portable state
//	DELETE /v1/sessions/{id}                          end a session early
//	POST   /v1/collections/{collection}/batches       create a batch of sessions
//	GET    /v1/batches/{id}/questions                 all members' pending questions
//	POST   /v1/batches/{id}/answers                   one round of answers
//	GET    /v1/batches/{id}/results                   all members' outcomes
//	GET    /v1/batches/{id}/state                     export portable state
//	PUT    /v1/batches/{id}/state                     import portable state
//	DELETE /v1/batches/{id}                           end a batch early
//
// Sessions and batches are two views of one resource model — an ordered
// list of member sessions (see resource.go) — served by one request core:
// one create path, one answer-round path, one pair of member-row renderers
// and one state export/import path for both kinds, which the JSON handlers
// here and the stream frame handlers (stream.go) call alike.
//
// The state endpoints make sessions portable: GET …/state returns an opaque
// versioned snapshot (the engine's binary encoding, base64 in JSON), and
// PUT …/state recreates the resource — on this server or another one
// holding the same collection — under the ID in the URL, resuming exactly
// where it stopped. That pair is what the router tier builds live migration
// out of: drain engine A, re-import its sessions on engine B, clients never
// notice beyond the ID staying valid.
//
// Everything scales with PR 1's concurrency model: collections and trees
// are immutable and shared, sessions with equal options draw strategies
// from one per-collection factory so concurrent users amortise lookahead
// work, and each session carries its own lock so one slow client never
// blocks another's round-trips.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"setdiscovery"
)

// Option configures a Server.
type Option func(*Server)

// WithTTL sets the idle session lifetime (default DefaultTTL).
func WithTTL(d time.Duration) Option { return func(s *Server) { s.ttl = d } }

// WithMaxSessions bounds the number of live sessions (default
// DefaultMaxSessions). A batch counts every member session against the
// bound, so the cap is a budget of live discoveries no matter how clients
// group them.
func WithMaxSessions(n int) Option { return func(s *Server) { s.maxSessions = n } }

// WithMaxBatchMembers bounds the member count of one batch (default
// DefaultMaxBatchMembers), so a single create-batch POST cannot allocate an
// unbounded number of sessions.
func WithMaxBatchMembers(n int) Option { return func(s *Server) { s.maxBatchMembers = n } }

// WithSlidingTTL selects the session-expiry policy. On (the default), every
// touch of a session — question fetch, answer, result, state export —
// slides its deadline forward by the TTL, so a slow-but-active interactive
// user can never lose a session mid-discovery to a timeout tuned for
// abandoned ones. Off, the deadline is fixed at creation: a hard wall-clock
// budget per discovery, for deployments that must bound worst-case session
// lifetime regardless of activity.
func WithSlidingTTL(on bool) Option { return func(s *Server) { s.sliding = on } }

// WithLogf routes request-error logging (default: discarded).
func WithLogf(f func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = f }
}

// WithSessionOptions prepends base options to every session the server
// creates; request-supplied options are applied after them and win on
// conflict. The primary use is setdiscovery.WithCacheBound, so a server
// meant to run indefinitely caps the per-collection lookahead caches and the
// selection memo its sessions share (setdiscd wires -cache-bound through
// here). The same base options are applied when a session is restored from
// imported state.
func WithSessionOptions(opts ...setdiscovery.Option) Option {
	return func(s *Server) { s.sessionOpts = append(s.sessionOpts, opts...) }
}

// WithCachePersist stores selection-cache shards under dir: Register loads
// each collection's persisted shard (when one exists and matches the
// collection's content fingerprint), and PersistCaches writes up to
// persistShardEntries of its entries back — so a restarted server resumes
// with a warm selection memo instead of recomputing the popular prefix
// states from scratch (setdiscd wires -cache-persist through here). Load
// failures are logged and ignored: a stale or foreign shard costs a cold
// start, never correctness.
func WithCachePersist(dir string) Option {
	return func(s *Server) { s.persistDir = dir }
}

// collectionEntry pairs a registered collection with its optional prebuilt
// tree.
type collectionEntry struct {
	c    *setdiscovery.Collection
	tree *setdiscovery.Tree
}

// Server serves interactive set discovery over HTTP. Construct with New,
// Register collections (and optionally trees) before serving; all handler
// methods are safe for concurrent use.
type Server struct {
	mu          sync.RWMutex
	collections map[string]*collectionEntry

	store           *Store
	ttl             time.Duration
	maxSessions     int
	maxBatchMembers int
	sliding         bool
	sessionOpts     []setdiscovery.Option
	persistDir      string
	logf            func(format string, args ...any)
	started         time.Time
}

// DefaultMaxBatchMembers bounds how many member sessions one create-batch
// request may open.
const DefaultMaxBatchMembers = 1024

// New builds an empty server.
func New(opts ...Option) *Server {
	s := &Server{
		collections:     make(map[string]*collectionEntry),
		maxBatchMembers: DefaultMaxBatchMembers,
		sliding:         true,
		logf:            func(string, ...any) {},
		started:         time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	// One store for sessions and batches: the capacity is a budget of live
	// discoveries, and a batch counts every member against it.
	s.store = NewStore(s.ttl, s.maxSessions)
	s.store.SetSliding(s.sliding)
	return s
}

// Register adds a collection under the given name.
func (s *Server) Register(name string, c *setdiscovery.Collection) error {
	if name == "" || c == nil {
		return errors.New("server: Register needs a name and a collection")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.collections[name]; ok {
		return fmt.Errorf("server: collection %q already registered", name)
	}
	s.collections[name] = &collectionEntry{c: c}
	s.loadPersistedShard(name, c)
	return nil
}

// shardPath names the persisted selection-cache shard file for a collection.
// The name is path-escaped so arbitrary registered names stay single safe
// filename components.
func (s *Server) shardPath(name string) string {
	return filepath.Join(s.persistDir, url.PathEscape(name)+".sdcs")
}

// loadPersistedShard warms a freshly registered collection's selection memo
// from its persisted shard, when cache persistence is configured and a shard
// exists. Failures are logged and swallowed: the shard is advisory
// performance state, and a corrupt or foreign one must not block startup.
func (s *Server) loadPersistedShard(name string, c *setdiscovery.Collection) {
	if s.persistDir == "" {
		return
	}
	path := s.shardPath(name)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.logf("server: reading cache shard %s: %v", path, err)
		}
		return
	}
	n, err := c.ImportSelectionCache(bytes.NewReader(data), s.sessionOpts...)
	if err != nil {
		s.logf("server: loading cache shard %s: %v", path, err)
		return
	}
	s.logf("server: collection %q: loaded %d selection-cache entries from %s", name, n, path)
}

// persistShardEntries caps how many entries one persisted shard carries, so
// files stay small. The export takes entries in no particular order.
const persistShardEntries = 1 << 16

// PersistCaches writes every registered collection's selection-cache shard
// under the WithCachePersist directory (creating it if needed), so the next
// start of this server — or any server registering the same collections —
// resumes warm. Call it after the listener has shut down. Without
// WithCachePersist it is a no-op. The first error is returned; later
// collections are still attempted.
func (s *Server) PersistCaches() error {
	if s.persistDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.persistDir, 0o755); err != nil {
		return fmt.Errorf("server: creating cache-persist dir: %w", err)
	}
	s.mu.RLock()
	entries := make(map[string]*setdiscovery.Collection, len(s.collections))
	for name, e := range s.collections {
		entries[name] = e.c
	}
	s.mu.RUnlock()
	var firstErr error
	for name, c := range entries {
		var buf bytes.Buffer
		if err := c.ExportSelectionCache(&buf, persistShardEntries, s.sessionOpts...); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Write-then-rename so a crash mid-write leaves the previous shard
		// intact rather than a truncated file.
		path := s.shardPath(name)
		tmp := path + ".tmp"
		err := os.WriteFile(tmp, buf.Bytes(), 0o644)
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			s.logf("server: persisting cache shard %s: %v", path, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.logf("server: collection %q: persisted selection-cache shard to %s", name, path)
	}
	return firstErr
}

// RegisterTree attaches a prebuilt decision tree to the named registered
// collection, enabling tree sessions (CreateSessionRequest.Tree) and the
// import of tree-walk states earlier releases exported. The tree must have
// been built over that same collection.
func (s *Server) RegisterTree(name string, t *setdiscovery.Tree) error {
	if t == nil {
		return errors.New("server: RegisterTree needs a tree")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.collections[name]
	if !ok {
		return fmt.Errorf("server: no collection %q registered", name)
	}
	if t.Collection() != e.c {
		return fmt.Errorf("server: tree was not built over collection %q", name)
	}
	e.tree = t
	return nil
}

// SessionCount returns the number of live (single) sessions.
func (s *Server) SessionCount() int {
	sessions, _ := s.store.Counts()
	return sessions
}

// BatchCount returns the number of live batches.
func (s *Server) BatchCount() int {
	_, batches := s.store.Counts()
	return batches
}

// Handler returns the HTTP handler serving the protocol: the canonical
// /v1/ routes plus the legacy unversioned aliases (identical handlers, so
// pre-versioning clients keep working; the compatibility suite in
// compat_test.go pins them).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux, "/v1")
	s.routes(mux, "")
	return mux
}

// routes mounts the full protocol under one path prefix.
func (s *Server) routes(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("GET "+prefix+"/collections", s.handleListCollections)
	if prefix == "" {
		// The pre-versioning /healthz answered plain-text "ok\n"; probes
		// configured against that body must keep passing, so only the /v1
		// route carries the JSON shape.
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n")
		})
	} else {
		mux.HandleFunc("GET "+prefix+"/healthz", s.handleHealthz)
	}
	mux.HandleFunc("GET "+prefix+"/stats", s.handleStats)
	mux.HandleFunc("GET "+prefix+"/metrics", s.handleMetrics)
	mux.HandleFunc("GET "+prefix+"/cache/shard", s.handleExportCacheShard)
	mux.HandleFunc("PUT "+prefix+"/cache/shard", s.handleImportCacheShard)
	mux.HandleFunc("POST "+prefix+"/collections/{collection}/sessions", s.handleCreateSession)
	mux.HandleFunc("GET "+prefix+"/sessions/{id}/question", s.handleGetQuestion)
	mux.HandleFunc("POST "+prefix+"/sessions/{id}/answer", s.handleAnswer)
	mux.HandleFunc("GET "+prefix+"/sessions/{id}/result", s.handleGetResult)
	mux.HandleFunc("GET "+prefix+"/sessions/{id}/state", s.handleExportState(KindSession))
	mux.HandleFunc("PUT "+prefix+"/sessions/{id}/state", s.handleImportState(KindSession))
	mux.HandleFunc("DELETE "+prefix+"/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST "+prefix+"/collections/{collection}/batches", s.handleCreateBatch)
	mux.HandleFunc("GET "+prefix+"/batches/{id}/questions", s.handleBatchQuestions)
	mux.HandleFunc("POST "+prefix+"/batches/{id}/answers", s.handleBatchAnswers)
	mux.HandleFunc("GET "+prefix+"/batches/{id}/results", s.handleBatchResults)
	mux.HandleFunc("GET "+prefix+"/batches/{id}/state", s.handleExportState(KindBatch))
	mux.HandleFunc("PUT "+prefix+"/batches/{id}/state", s.handleImportState(KindBatch))
	mux.HandleFunc("DELETE "+prefix+"/batches/{id}", s.handleDeleteBatch)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthzResponse{Status: "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.stats())
}

// stats gathers load, capacity and per-collection selection-cache
// statistics: the one source /v1/stats encodes and /v1/metrics renders.
func (s *Server) stats() StatsResponse {
	sessions, batches := s.store.Counts()
	resp := StatsResponse{
		Status:          "ok",
		UptimeSeconds:   int64(time.Since(s.started) / time.Second),
		Sessions:        sessions,
		Batches:         batches,
		LiveDiscoveries: s.store.Used(),
		MaxSessions:     s.store.max,
		TTLSeconds:      int64(s.store.ttl / time.Second),
		SlidingTTL:      s.sliding,
	}
	s.mu.RLock()
	for name, e := range s.collections {
		cs := e.c.SelectionCacheStats()
		resp.Collections = append(resp.Collections, CollectionStats{
			Name:     name,
			Sets:     e.c.Len(),
			Entities: e.c.Internal().DistinctEntities(),
			Tree:     e.tree != nil,
			Cache: CacheStats{
				Hits:      cs.Hits,
				Misses:    cs.Misses,
				Evictions: cs.Evictions,
				Coalesced: cs.Coalesced,
				Entries:   cs.Entries,
			},
		})
	}
	s.mu.RUnlock()
	sort.Slice(resp.Collections, func(i, j int) bool {
		return resp.Collections[i].Name < resp.Collections[j].Name
	})
	return resp
}

// handleExportCacheShard serves GET /v1/cache/shard?collection=NAME[&max=N]:
// a warm selection-cache shard as a binary body (application/octet-stream),
// up to max entries in no particular order. The binary body makes the
// warm-shard flow a curl pipe: GET from a warm engine, PUT to a cold one.
// The router uses the same pair to warm a freshly added backend from a
// healthy peer.
func (s *Server) handleExportCacheShard(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("collection")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing collection query parameter"))
		return
	}
	e, ok := s.entry(w, name)
	if !ok {
		return
	}
	max := persistShardEntries
	if raw := r.URL.Query().Get("max"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid max %q", raw))
			return
		}
		if v < max {
			max = v
		}
	}
	var buf bytes.Buffer
	if err := e.c.ExportSelectionCache(&buf, max, s.sessionOpts...); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.logf("server: writing cache shard: %v", err)
	}
}

// handleImportCacheShard serves PUT /v1/cache/shard?collection=NAME: merge a
// binary shard body into the collection's selection memo. Shards from a
// different collection (content-fingerprint mismatch) or corrupted bodies are
// rejected; a valid import reports how many entries landed. The entries
// themselves are trusted as given — every session whose state hashes to an
// entry's key is asked its entities — so this route is for operators and
// the router's warming, never for clients.
func (s *Server) handleImportCacheShard(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("collection")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing collection query parameter"))
		return
	}
	e, ok := s.entry(w, name)
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxStateBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	n, err := e.c.ImportSelectionCache(bytes.NewReader(body), s.sessionOpts...)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, CacheShardImportResponse{Collection: name, Imported: n})
}

func (s *Server) handleListCollections(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]CollectionInfo, 0, len(s.collections))
	for name, e := range s.collections {
		out = append(out, CollectionInfo{Name: name, Sets: e.c.Len(), Tree: e.tree != nil})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	s.writeJSON(w, http.StatusOK, out)
}

// collection looks up a registered collection.
func (s *Server) collection(name string) (*collectionEntry, error) {
	s.mu.RLock()
	e, ok := s.collections[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no collection %q", name)
	}
	return e, nil
}

// entry resolves a collection for a JSON handler, writing a 404 on failure.
func (s *Server) entry(w http.ResponseWriter, name string) (*collectionEntry, bool) {
	e, err := s.collection(name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
	}
	return e, err == nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	id, st, status, err := s.create(r.PathValue("collection"), func() (createSpec, error) {
		var req CreateSessionRequest
		err := decodeJSON(r, &req, maxBodyBytes)
		return createSpec{tree: req.Tree, seeds: [][]string{req.Initial}, cfg: req.SessionConfig}, err
	})
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	// The ID is published the instant create returns, so even this first
	// read takes the resource lock.
	st.Mu.Lock()
	resp := questionSnapshot(id, st)
	resp.State = s.inlineState(wantsState(r), id, st)
	st.Mu.Unlock()
	s.writeJSON(w, status, resp)
}

// sessionOptions maps the wire-level engine configuration to engine
// options. base options (the server's WithSessionOptions) come first so
// request options override them.
func sessionOptions(cfg SessionConfig, base []setdiscovery.Option) ([]setdiscovery.Option, error) {
	opts := append([]setdiscovery.Option(nil), base...)
	if cfg.Strategy != "" {
		opts = append(opts, setdiscovery.WithStrategy(cfg.Strategy))
	}
	if cfg.K > 0 {
		opts = append(opts, setdiscovery.WithK(cfg.K))
	}
	if cfg.Q > 0 {
		opts = append(opts, setdiscovery.WithQ(cfg.Q))
	}
	switch strings.ToLower(cfg.Metric) {
	case "", "ad":
	case "h":
		opts = append(opts, setdiscovery.WithMetric(setdiscovery.Height))
	default:
		return nil, fmt.Errorf("unknown metric %q (want \"ad\" or \"h\")", cfg.Metric)
	}
	if cfg.MaxQuestions > 0 {
		opts = append(opts, setdiscovery.WithMaxQuestions(cfg.MaxQuestions))
	}
	if cfg.BatchSize > 1 {
		opts = append(opts, setdiscovery.WithBatchSize(cfg.BatchSize))
	}
	if cfg.Backtrack {
		opts = append(opts, setdiscovery.WithBacktracking())
	}
	if cfg.GroupStrategy != "" {
		opts = append(opts, setdiscovery.WithGroupStrategy(cfg.GroupStrategy))
	}
	for _, c := range cfg.GroupConstraints {
		opts = append(opts, setdiscovery.WithGroupConstraint(c[0], c[1]))
	}
	return opts, nil
}

func (s *Server) handleGetQuestion(w http.ResponseWriter, r *http.Request) {
	id, st, ok := s.lookup(w, r, KindSession)
	if !ok {
		return
	}
	st.Mu.Lock()
	resp := questionSnapshot(id, st)
	resp.State = s.inlineState(wantsState(r), id, st)
	st.Mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	id, st, ok := s.lookup(w, r, KindSession)
	if !ok {
		return
	}
	var req AnswerRequest
	if err := decodeJSON(r, &req, maxBodyBytes); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	answer := MemberAnswerRequest{Answer: req.Answer, Entity: req.Entity, Confirm: req.Confirm,
		Subset: req.Subset, Semantics: req.Semantics}
	var resp QuestionResponse
	status, err := answerRound(st, []MemberAnswerRequest{answer}, func(map[int]string) {
		resp = questionSnapshot(id, st)
		resp.State = s.inlineState(wantsState(r), id, st)
	})
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, status, resp)
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	id, st, ok := s.lookup(w, r, KindSession)
	if !ok {
		return
	}
	st.Mu.Lock()
	row := memberResult(st, 0)
	st.Mu.Unlock()
	s.writeJSON(w, http.StatusOK, ResultResponse{SessionID: id, Done: row.Done, ResultBody: row.ResultBody})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	// Kind-matched: sessions and batches share the ID namespace, and a
	// batch ID sent here must stay untouched (not even TTL-refreshed).
	s.store.DeleteIf(r.PathValue("id"), func(st *Stored) bool { return st.Kind() == KindSession })
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCreateBatch(w http.ResponseWriter, r *http.Request) {
	id, st, status, err := s.create(r.PathValue("collection"), func() (createSpec, error) {
		var req CreateBatchRequest
		err := decodeJSON(r, &req, maxBodyBytes)
		seeds := make([][]string, len(req.Seeds))
		for i, seed := range req.Seeds {
			seeds[i] = seed.Initial
		}
		return createSpec{batch: true, seeds: seeds, cfg: req.SessionConfig}, err
	})
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	st.Mu.Lock()
	resp := batchSnapshot(id, st, nil)
	resp.State = s.inlineState(wantsState(r), id, st)
	st.Mu.Unlock()
	s.writeJSON(w, status, resp)
}

func (s *Server) handleBatchQuestions(w http.ResponseWriter, r *http.Request) {
	id, st, ok := s.lookup(w, r, KindBatch)
	if !ok {
		return
	}
	st.Mu.Lock()
	resp := batchSnapshot(id, st, nil)
	resp.State = s.inlineState(wantsState(r), id, st)
	st.Mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatchAnswers(w http.ResponseWriter, r *http.Request) {
	id, st, ok := s.lookup(w, r, KindBatch)
	if !ok {
		return
	}
	var req BatchAnswerRequest
	if err := decodeJSON(r, &req, maxBodyBytes); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var resp BatchQuestionResponse
	status, err := answerRound(st, req.Answers, func(memberErrs map[int]string) {
		resp = batchSnapshot(id, st, memberErrs)
		resp.State = s.inlineState(wantsState(r), id, st)
	})
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, status, resp)
}

func (s *Server) handleBatchResults(w http.ResponseWriter, r *http.Request) {
	id, st, ok := s.lookup(w, r, KindBatch)
	if !ok {
		return
	}
	st.Mu.Lock()
	resp := BatchResultsResponse{BatchID: id, Done: st.Done()}
	for i := 0; i < st.Members(); i++ {
		resp.Members = append(resp.Members, memberResult(st, i))
	}
	stats := st.Batch.Stats()
	resp.SelectionsComputed = stats.Selections
	resp.SelectionsShared = stats.SelectionsShared
	st.Mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteBatch(w http.ResponseWriter, r *http.Request) {
	s.store.DeleteIf(r.PathValue("id"), func(st *Stored) bool { return st.Kind() == KindBatch })
	w.WriteHeader(http.StatusNoContent)
}

// handleExportState serves GET …/state for either kind: the resource's
// portable snapshot, ready to be re-imported here or on another engine.
func (s *Server) handleExportState(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, st, ok := s.lookup(w, r, kind)
		if !ok {
			return
		}
		st.Mu.Lock()
		state, err := st.Snapshot()
		st.Mu.Unlock()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp := StateResponse{Collection: st.Collection, Kind: st.Kind(), State: state}
		if kind == KindBatch {
			resp.BatchID = id
		} else {
			resp.SessionID = id
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// handleImportState serves PUT …/state for either kind: restore the
// snapshot over the named collection and store it under the ID in the URL —
// idempotently, so a retried migration PUT converges. The resource resumes
// exactly where the exported one stopped.
func (s *Server) handleImportState(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !validImportID(id) {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf(
				"invalid id %q: want 1-128 characters of [A-Za-z0-9_-]", id))
			return
		}
		var req ImportStateRequest
		if err := decodeJSON(r, &req, maxStateBytes); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		e, ok := s.entry(w, req.Collection)
		if !ok {
			return
		}
		st, err := restoreStored(e, req.Collection, req.State, kind, s.sessionOpts)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		// Render the response before the entry is published: the import ID is
		// client-chosen (already known to other clients), so the instant
		// PutWithID succeeds a concurrent request may lock and advance the
		// resource — after that, reading it without st.Mu would race.
		var resp any = questionSnapshot(id, st)
		if kind == KindBatch {
			resp = batchSnapshot(id, st, nil)
		}
		if err := s.store.PutWithID(id, st); err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrStoreFull):
				status = http.StatusServiceUnavailable
			case errors.Is(err, ErrKindMismatch):
				// The ID already names a live resource of the other kind;
				// replacing it would destroy it through the wrong endpoint.
				status = http.StatusConflict
			}
			s.writeError(w, status, err)
			return
		}
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// validImportID bounds client-chosen IDs (PUT …/state): opaque, URL-safe,
// and short enough to be a map key forever.
func validImportID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// lookup resolves the request's {id} path value to a stored resource of the
// wanted kind, writing a 404 on failure (or when the ID names the other
// kind — sessions and batches share the ID namespace but not their
// endpoints).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, kind string) (string, *Stored, bool) {
	id := r.PathValue("id")
	st, ok := s.store.Get(id)
	if !ok || st.Kind() != kind {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired %s", kind))
		return id, nil, false
	}
	return id, st, true
}

// batchSnapshot renders every member's pending interaction, merging
// per-member errors from the answer round that produced it. Callers hold
// the resource lock.
func batchSnapshot(id string, st *Stored, memberErrs map[int]string) BatchQuestionResponse {
	resp := BatchQuestionResponse{BatchID: id, Done: st.Done()}
	for i := 0; i < st.Members(); i++ {
		resp.Members = append(resp.Members, memberQuestion(st, i, memberErrs[i]))
	}
	return resp
}

// questionSnapshot renders a single session's pending interaction: member
// row 0, flattened. Callers hold the resource lock.
func questionSnapshot(id string, st *Stored) QuestionResponse {
	row := memberQuestion(st, 0, "")
	return QuestionResponse{
		SessionID: id,
		Done:      row.Done,
		Entity:    row.Entity,
		Confirm:   row.Confirm,
		Subset:    row.Subset,
		Semantics: row.Semantics,
		Questions: row.Questions,
	}
}

// wantsState reports whether a JSON request asked for the resource's inline
// snapshot with ?include_state=1.
func wantsState(r *http.Request) bool {
	return r.URL.Query().Get("include_state") != ""
}

// parseAnswer maps the wire answer to the engine's.
func parseAnswer(s string) (setdiscovery.Answer, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "yes", "y":
		return setdiscovery.Yes, nil
	case "no", "n":
		return setdiscovery.No, nil
	case "unknown", "?", "dk", "dont know", "don't know":
		return setdiscovery.Unknown, nil
	default:
		return 0, fmt.Errorf("invalid answer %q (want \"yes\", \"no\" or \"unknown\")", s)
	}
}

// maxBodyBytes bounds request bodies; create/answer requests are tiny.
const maxBodyBytes = 1 << 20

// maxStateBytes bounds state-import bodies, which carry whole serialized
// sessions (a backtracking session's trail holds one candidate set per
// answer) and so outgrow the interactive-request bound on large
// collections.
const maxStateBytes = 64 << 20

// decodeJSON parses the request body into v. An empty body decodes to the
// zero value, so POSTs with all-default parameters need no body at all.
func decodeJSON(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// jsonEncoder is a pooled encode buffer with its json.Encoder permanently
// bound to it, so the hot path re-allocates neither.
type jsonEncoder struct {
	buf *bytes.Buffer
	enc *json.Encoder
}

// encodeBufs pools the response encoders: every interaction round writes
// one JSON body, and encoding into a pooled buffer then issuing a single
// Write keeps the hot path free of per-response allocations (and hands
// net/http the full body in one call).
var encodeBufs = sync.Pool{New: func() any {
	buf := new(bytes.Buffer)
	return &jsonEncoder{buf: buf, enc: json.NewEncoder(buf)}
}}

// maxPooledEncodeBuf caps what returns to the pool; an occasional huge
// body (a state export rode through) must not pin its buffer forever.
const maxPooledEncodeBuf = 64 << 10

// contentTypeJSON is the ready-made header value, assigned (not Set) so
// the per-response []string allocation disappears too. Never mutated.
var contentTypeJSON = []string{"application/json"}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	je := encodeBufs.Get().(*jsonEncoder)
	je.buf.Reset()
	if err := je.enc.Encode(v); err != nil {
		// Nothing written yet, so the failure can still be a clean 500.
		s.logf("server: encoding response: %v", err)
		encodeBufs.Put(je)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	if _, err := w.Write(je.buf.Bytes()); err != nil {
		s.logf("server: writing response: %v", err)
	}
	if je.buf.Cap() <= maxPooledEncodeBuf {
		encodeBufs.Put(je)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		s.logf("server: %v", err)
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
