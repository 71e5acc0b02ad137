package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"setdiscovery"
	"setdiscovery/internal/server"
)

func paperSets() map[string][]string {
	return map[string][]string{
		"S1": {"a", "b", "c", "d"},
		"S2": {"a", "d", "e"},
		"S3": {"a", "b", "c", "d", "f"},
		"S4": {"a", "b", "c", "g", "h"},
		"S5": {"a", "b", "h", "i"},
		"S6": {"a", "b", "j", "k"},
		"S7": {"a", "b", "g"},
	}
}

// engine is one backend of the test fleet.
type engine struct {
	srv *server.Server
	ts  *httptest.Server
	c   *setdiscovery.Collection
}

// newEngine starts a full discovery engine over the paper collection — its
// own registry and session store, as a separate process would have.
func newEngine(t testing.TB) *engine {
	t.Helper()
	c, err := setdiscovery.NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New()
	if err := srv.Register("paper", c); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &engine{srv: srv, ts: ts, c: c}
}

// do performs one JSON exchange against the router (or an engine).
func do(t testing.TB, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// wireAnswer maps an oracle reply to the wire spelling.
func wireAnswer(o setdiscovery.Oracle, entity, confirm string) string {
	if confirm != "" {
		if conf, ok := o.(setdiscovery.Confirmer); ok && conf.Confirm(confirm) {
			return "yes"
		}
		return "no"
	}
	switch o.Answer(entity) {
	case setdiscovery.Yes:
		return "yes"
	case setdiscovery.No:
		return "no"
	default:
		return "unknown"
	}
}

// answerOnce answers the pending question through baseURL, returning the
// next question.
func answerOnce(t *testing.T, baseURL string, q server.QuestionResponse, o setdiscovery.Oracle) server.QuestionResponse {
	t.Helper()
	var next server.QuestionResponse
	if code := do(t, "POST", baseURL+"/v1/sessions/"+q.SessionID+"/answer",
		server.AnswerRequest{Answer: wireAnswer(o, q.Entity, q.Confirm), Entity: q.Entity, Confirm: q.Confirm}, &next); code != http.StatusOK {
		t.Fatalf("answer: status %d", code)
	}
	return next
}

// fullSequence resolves a fresh session against baseURL, returning every
// asked entity and the result — the reference for migration equivalence.
func fullSequence(t *testing.T, baseURL string, create server.CreateSessionRequest, o setdiscovery.Oracle) ([]string, server.ResultResponse) {
	t.Helper()
	var q server.QuestionResponse
	if code := do(t, "POST", baseURL+"/v1/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var asked []string
	for rounds := 0; !q.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("session did not converge")
		}
		if q.Entity != "" {
			asked = append(asked, q.Entity)
		}
		q = answerOnce(t, baseURL, q, o)
	}
	var res server.ResultResponse
	if code := do(t, "GET", baseURL+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	return asked, res
}

// sessionOwner finds which backend the router tracked a session on.
func sessionOwner(t *testing.T, routerURL string) map[string]int {
	t.Helper()
	var rows []BackendStats
	if code := do(t, "GET", routerURL+"/v1/router/backends", nil, &rows); code != http.StatusOK {
		t.Fatalf("list backends: status %d", code)
	}
	out := make(map[string]int)
	for _, row := range rows {
		out[row.Name] = row.Sessions
	}
	return out
}

// TestTwoEngineDrainMigration is the router acceptance test: a session
// created on engine A (whichever the ring picks), with half its questions
// answered, survives draining A — and A being killed outright — because the
// router migrated it to engine B through snapshot/restore. The client keeps
// its session ID and sees exactly the remaining question sequence the
// never-migrated twin would have seen.
func TestTwoEngineDrainMigration(t *testing.T) {
	for _, tc := range []struct {
		name   string
		create server.CreateSessionRequest
	}{
		{"loop", server.CreateSessionRequest{Initial: []string{"b"}}},
		{"backtracking", server.CreateSessionRequest{SessionConfig: server.SessionConfig{Backtrack: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engines := map[string]*engine{"a": newEngine(t), "b": newEngine(t)}
			rt := New(WithLogf(t.Logf))
			for name, e := range engines {
				if err := rt.AddBackend(name, e.ts.URL); err != nil {
					t.Fatal(err)
				}
			}
			front := httptest.NewServer(rt.Handler())
			t.Cleanup(front.Close)

			for _, target := range []string{"S1", "S4", "S7"} {
				oracle, err := engines["a"].c.TargetOracle(target)
				if err != nil {
					t.Fatal(err)
				}
				// Reference: the never-migrated twin on a standalone engine.
				standalone := newEngine(t)
				wantAsked, wantRes := fullSequence(t, standalone.ts.URL, tc.create, oracle)

				var q server.QuestionResponse
				if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", tc.create, &q); code != http.StatusCreated {
					t.Fatalf("create via router: status %d", code)
				}
				var asked []string
				for i := 0; i < len(wantAsked)/2 && !q.Done; i++ {
					asked = append(asked, q.Entity)
					q = answerOnce(t, front.URL, q, oracle)
				}

				// Which engine holds it? Drain that one, then kill it.
				counts := sessionOwner(t, front.URL)
				var ownerName string
				for name, n := range counts {
					if n > 0 {
						ownerName = name
					}
				}
				if ownerName == "" {
					t.Fatal("router tracked the session on no backend")
				}
				otherName := "a"
				if ownerName == "a" {
					otherName = "b"
				}
				var drained DrainResponse
				if code := do(t, "POST", front.URL+"/v1/router/backends/"+ownerName+"/drain", nil, &drained); code != http.StatusOK {
					t.Fatalf("drain: status %d", code)
				}
				if drained.Migrated != 1 {
					t.Fatalf("drain migrated %d resources, want 1", drained.Migrated)
				}
				engines[ownerName].ts.Close() // the engine is gone for good

				if n := engines[otherName].srv.SessionCount(); n != 1 {
					t.Fatalf("engine %s holds %d sessions after migration, want 1", otherName, n)
				}

				// The session finishes through the router, on the surviving
				// engine, with the identical remaining sequence.
				for rounds := 0; !q.Done; rounds++ {
					if rounds > 100 {
						t.Fatal("session did not converge after migration")
					}
					if q.Entity != "" {
						asked = append(asked, q.Entity)
					}
					q = answerOnce(t, front.URL, q, oracle)
				}
				var res server.ResultResponse
				if code := do(t, "GET", front.URL+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
					t.Fatalf("result via router: status %d", code)
				}
				if len(asked) != len(wantAsked) {
					t.Fatalf("asked %v across migration, twin asked %v", asked, wantAsked)
				}
				for i := range asked {
					if asked[i] != wantAsked[i] {
						t.Fatalf("question %d diverged after migration: %q vs twin %q", i, asked[i], wantAsked[i])
					}
				}
				if res.Target != target || res.Target != wantRes.Target ||
					res.Questions != wantRes.Questions || res.Backtracks != wantRes.Backtracks {
					t.Errorf("migrated result %+v, twin %+v", res, wantRes)
				}

				// Fresh fleet per target: the drained engine is dead.
				engines = map[string]*engine{"a": newEngine(t), "b": newEngine(t)}
				rt = New(WithLogf(t.Logf))
				for name, e := range engines {
					if err := rt.AddBackend(name, e.ts.URL); err != nil {
						t.Fatal(err)
					}
				}
				front.Close()
				front = httptest.NewServer(rt.Handler())
			}
		})
	}
}

// TestRouterBatchMigration drains a batch mid-round across engines.
func TestRouterBatchMigration(t *testing.T) {
	engines := map[string]*engine{"a": newEngine(t), "b": newEngine(t)}
	rt := New(WithLogf(t.Logf))
	for name, e := range engines {
		if err := rt.AddBackend(name, e.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	targets := []string{"S2", "S5", "S6"}
	oracles := make([]setdiscovery.Oracle, len(targets))
	for i, name := range targets {
		o, err := engines["a"].c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	var snap server.BatchQuestionResponse
	if code := do(t, "POST", front.URL+"/v1/collections/paper/batches",
		server.CreateBatchRequest{Seeds: []server.BatchSeed{{}, {}, {}}}, &snap); code != http.StatusCreated {
		t.Fatalf("create batch: status %d", code)
	}
	answerRound := func(snap server.BatchQuestionResponse) server.BatchQuestionResponse {
		var req server.BatchAnswerRequest
		for _, m := range snap.Members {
			if m.Done {
				continue
			}
			req.Answers = append(req.Answers, server.MemberAnswerRequest{
				Member: m.Member, Answer: wireAnswer(oracles[m.Member], m.Entity, m.Confirm),
				Entity: m.Entity, Confirm: m.Confirm,
			})
		}
		var next server.BatchQuestionResponse
		if code := do(t, "POST", front.URL+"/v1/batches/"+snap.BatchID+"/answers", req, &next); code != http.StatusOK {
			t.Fatalf("batch answers: status %d", code)
		}
		return next
	}
	snap = answerRound(snap)

	// Drain whichever engine holds the batch; the other takes over.
	ownerName := ""
	for name, e := range engines {
		if e.srv.BatchCount() > 0 {
			ownerName = name
		}
	}
	if ownerName == "" {
		t.Fatal("no engine holds the batch")
	}
	var drained DrainResponse
	if code := do(t, "POST", front.URL+"/v1/router/backends/"+ownerName+"/drain", nil, &drained); code != http.StatusOK || drained.Migrated != 1 {
		t.Fatalf("drain: status %d, %+v", code, drained)
	}
	engines[ownerName].ts.Close()

	for rounds := 0; !snap.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("batch did not converge after migration")
		}
		snap = answerRound(snap)
	}
	var results server.BatchResultsResponse
	if code := do(t, "GET", front.URL+"/v1/batches/"+snap.BatchID+"/results", nil, &results); code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	for i, mr := range results.Members {
		if mr.Target != targets[i] {
			t.Errorf("member %d resolved %q, want %q", i, mr.Target, targets[i])
		}
	}
}

// TestRingPlacement pins the consistent-hash properties the tier depends
// on: deterministic ownership, and bounded movement when a shard joins
// (only keys whose owner becomes the new backend move).
func TestRingPlacement(t *testing.T) {
	mk := func(names ...string) *Router {
		rt := New()
		for _, n := range names {
			if err := rt.AddBackend(n, "http://"+n+".invalid:1"); err != nil {
				t.Fatal(err)
			}
		}
		return rt
	}
	r1 := mk("a", "b")
	r2 := mk("a", "b")
	key := func(i int) string { return fmt.Sprintf("collection-%d", i) }
	ownersBefore := make(map[string]string)
	for i := 0; i < 200; i++ {
		b1 := r1.ringOwner(key(i))
		b2 := r2.ringOwner(key(i))
		if b1 == nil || b2 == nil || b1.name != b2.name {
			t.Fatalf("placement not deterministic for %s: %v vs %v", key(i), b1, b2)
		}
		ownersBefore[key(i)] = b1.name
	}
	// Both backends get a meaningful share.
	share := make(map[string]int)
	for _, name := range ownersBefore {
		share[name]++
	}
	if share["a"] < 40 || share["b"] < 40 {
		t.Errorf("lopsided placement: %v", share)
	}
	// Adding a shard moves only keys that now belong to it.
	r3 := mk("a", "b", "c")
	moved := 0
	for i := 0; i < 200; i++ {
		after := r3.ringOwner(key(i)).name
		if after != ownersBefore[key(i)] {
			moved++
			if after != "c" {
				t.Errorf("%s moved from %s to %s, not to the new shard", key(i), ownersBefore[key(i)], after)
			}
		}
	}
	if moved == 0 || moved > 140 {
		t.Errorf("adding a shard moved %d of 200 keys", moved)
	}
}

// TestRouterErrors covers the fleet-level failure answers: no backends,
// unknown sessions, dead backends, drain of the last engine.
func TestRouterErrors(t *testing.T) {
	rt := New()
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	var e server.ErrorResponse
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, &e); code != http.StatusServiceUnavailable {
		t.Errorf("create with no backends: status %d", code)
	}
	if code := do(t, "GET", front.URL+"/v1/healthz", nil, &e); code != http.StatusServiceUnavailable {
		t.Errorf("healthz with no backends: status %d", code)
	}
	if code := do(t, "GET", front.URL+"/v1/sessions/deadbeef/question", nil, &e); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}

	eng := newEngine(t)
	if err := rt.AddBackend("a", eng.ts.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Drain("a"); err == nil {
		t.Error("drained the last live backend")
	}
	if err := rt.AddBackend("a", eng.ts.URL); err == nil {
		t.Error("duplicate backend name accepted")
	}
	if err := rt.AddBackend("bad", "not a url"); err == nil {
		t.Error("invalid backend URL accepted")
	}
	var h server.HealthzResponse
	if code := do(t, "GET", front.URL+"/v1/healthz", nil, &h); code != http.StatusOK {
		t.Errorf("healthz with a backend: status %d", code)
	}

	// A dead backend answers 502 through the router.
	var q server.QuestionResponse
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	eng.ts.Close()
	if code := do(t, "GET", front.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &e); code != http.StatusBadGateway {
		t.Errorf("dead backend: status %d", code)
	}
}

// TestRouterExternalImport: a PUT of exported state for an ID the router
// has never seen lands on the collection's ring owner and is tracked from
// then on.
func TestRouterExternalImport(t *testing.T) {
	eng := newEngine(t)
	rt := New()
	if err := rt.AddBackend("a", eng.ts.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Export from a standalone engine the router knows nothing about.
	outside := newEngine(t)
	var q server.QuestionResponse
	if code := do(t, "POST", outside.ts.URL+"/v1/collections/paper/sessions",
		server.CreateSessionRequest{Initial: []string{"b"}}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var state server.StateResponse
	if code := do(t, "GET", outside.ts.URL+"/v1/sessions/"+q.SessionID+"/state", nil, &state); code != http.StatusOK {
		t.Fatalf("export: status %d", code)
	}

	var imported server.QuestionResponse
	if code := do(t, "PUT", front.URL+"/v1/sessions/"+q.SessionID+"/state",
		server.ImportStateRequest{Collection: state.Collection, State: state.State}, &imported); code != http.StatusOK {
		t.Fatalf("import via router: status %d", code)
	}
	if imported.Entity != q.Entity {
		t.Fatalf("imported session suspended elsewhere: %+v vs %+v", imported, q)
	}
	// The router now routes the ID.
	var q2 server.QuestionResponse
	if code := do(t, "GET", front.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &q2); code != http.StatusOK || q2.Entity != q.Entity {
		t.Errorf("router did not track the imported session: status %d, %+v", code, q2)
	}
}

// TestRouterImportRenamesCollection: a state import for a tracked ID may
// carry another collection's session. The owner entry, which placement,
// migration and resurrection read, must then name the import's collection
// and hold the imported state as its checkpoint.
func TestRouterImportRenamesCollection(t *testing.T) {
	eng := newEngine(t)
	registerBits(t, eng.srv)
	rt := New()
	if err := rt.AddBackend("a", eng.ts.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var onPaper, onBits server.QuestionResponse
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, &onPaper); code != http.StatusCreated {
		t.Fatalf("create on paper: status %d", code)
	}
	if code := do(t, "POST", front.URL+"/v1/collections/bits/sessions", nil, &onBits); code != http.StatusCreated {
		t.Fatalf("create on bits: status %d", code)
	}
	var state server.StateResponse
	if code := do(t, "GET", front.URL+"/v1/sessions/"+onBits.SessionID+"/state", nil, &state); code != http.StatusOK {
		t.Fatalf("export: status %d", code)
	}
	if code := do(t, "PUT", front.URL+"/v1/sessions/"+onPaper.SessionID+"/state",
		server.ImportStateRequest{Collection: state.Collection, State: state.State}, nil); code != http.StatusOK {
		t.Fatalf("import over the paper session: status %d", code)
	}
	rt.mu.RLock()
	own := rt.owners[onPaper.SessionID]
	collection, snap := own.collection, own.snap
	rt.mu.RUnlock()
	if collection != "bits" || !bytes.Equal(snap, state.State) {
		t.Errorf("after the import the entry names %q and holds %d checkpoint bytes; want %q and the %d imported",
			collection, len(snap), "bits", len(state.State))
	}
}

// TestOwnerAging pins the affinity-table bound: an entry whose session saw
// no traffic for the owner TTL is swept, while a touched one survives — so
// the table tracks live sessions, not every session ever created.
func TestOwnerAging(t *testing.T) {
	eng := newEngine(t)
	rt := New()
	if err := rt.AddBackend("a", eng.ts.URL); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	rt.mu.Lock()
	rt.now = func() time.Time { return now }
	rt.mu.Unlock()
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var idle, active server.QuestionResponse
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, &idle); code != http.StatusCreated {
		t.Fatalf("create idle: status %d", code)
	}
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, &active); code != http.StatusCreated {
		t.Fatalf("create active: status %d", code)
	}
	// 40 minutes in, the active session is touched; the idle one is not.
	now = now.Add(40 * time.Minute)
	if code := do(t, "GET", front.URL+"/v1/sessions/"+active.SessionID+"/question", nil, nil); code != http.StatusOK {
		t.Fatalf("touch active: status %d", code)
	}
	// 50 minutes later (idle is 90m without traffic — past the 60m TTL;
	// active is 50m since its touch — within it): a create triggers the
	// sweep.
	now = now.Add(50 * time.Minute)
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, nil); code != http.StatusCreated {
		t.Fatalf("create to trigger sweep: status %d", code)
	}
	rt.mu.RLock()
	_, idleTracked := rt.owners[idle.SessionID]
	_, activeTracked := rt.owners[active.SessionID]
	rt.mu.RUnlock()
	if idleTracked {
		t.Error("idle session's affinity entry survived past the owner TTL")
	}
	if !activeTracked {
		t.Error("recently touched session's affinity entry was swept")
	}
}

// TestRouterStats exercises the aggregated fleet stats.
func TestRouterStats(t *testing.T) {
	engA, engB := newEngine(t), newEngine(t)
	rt := New()
	if err := rt.AddBackend("a", engA.ts.URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddBackend("b", engB.ts.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	var q server.QuestionResponse
	if code := do(t, "POST", front.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var stats RouterStatsResponse
	if code := do(t, "GET", front.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Sessions != 1 || stats.TrackedSessions != 1 || len(stats.Backends) != 2 {
		t.Errorf("fleet stats = %+v", stats)
	}
	alive := 0
	for _, b := range stats.Backends {
		if b.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("%d backends alive in stats, want 2", alive)
	}
}

// TestDrainUnknownBackendSentinel pins the errcmp fix: operations naming
// an untracked engine classify as ErrNoBackend through errors.Is — even
// wrapped — and the HTTP drain surface maps it to 404, not 400.
func TestDrainUnknownBackendSentinel(t *testing.T) {
	rt := New()
	if _, err := rt.Drain("ghost"); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("Drain(ghost) = %v; want errors.Is(err, ErrNoBackend)", err)
	}
	if err := rt.RemoveBackend("ghost"); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("RemoveBackend(ghost) = %v; want errors.Is(err, ErrNoBackend)", err)
	}
	if wrapped := fmt.Errorf("draining fleet: %w", func() error {
		_, err := rt.Drain("ghost")
		return err
	}()); !errors.Is(wrapped, ErrNoBackend) {
		t.Fatalf("wrapped drain error %v lost the ErrNoBackend sentinel", wrapped)
	}

	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/router/backends/ghost/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of unknown backend returned %d; want 404", resp.StatusCode)
	}
}
