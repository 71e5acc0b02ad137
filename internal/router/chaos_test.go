package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"setdiscovery/internal/server"
	"setdiscovery/internal/testutil"
)

// chaosFleet is two engines, each behind its own fault-injection proxy,
// fronted by one router — the stage for every kill/partition/flap E2E.
type chaosFleet struct {
	engines map[string]*engine
	proxies map[string]*testutil.ChaosProxy
	rt      *Router
	front   *httptest.Server
}

func newChaosFleet(t *testing.T, opts ...Option) *chaosFleet {
	t.Helper()
	f := &chaosFleet{
		engines: map[string]*engine{"a": newEngine(t), "b": newEngine(t)},
		proxies: map[string]*testutil.ChaosProxy{},
	}
	f.rt = New(append([]Option{WithLogf(t.Logf)}, opts...)...)
	for name, e := range f.engines {
		p, err := testutil.NewChaosProxy(e.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		f.proxies[name] = p
		if err := f.rt.AddBackend(name, p.URL()); err != nil {
			t.Fatal(err)
		}
	}
	f.front = httptest.NewServer(f.rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// detectDeath drives enough synchronous probe rounds to cross the failure
// threshold — the deterministic stand-in for FailThreshold × Interval of
// wall clock.
func (f *chaosFleet) detectDeath(t *testing.T) {
	t.Helper()
	for i := 0; i < f.rt.health.FailThreshold; i++ {
		f.rt.CheckHealthNow(context.Background())
	}
}

// getWithHeaders is do() plus access to the response headers.
func getWithHeaders(t *testing.T, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestChaosKillResurrect is the PR's acceptance test: an engine is killed
// mid-discovery with no graceful drain (its proxy resets every connection,
// as a SIGKILLed process's kernel would), the health loop detects the death
// within the documented bound, and the session resumes on the survivor from
// its last-known snapshot — completing with exactly the question sequence
// and result its never-killed twin produces. The first response after
// resurrection carries the X-Setdisc-Resumed header.
func TestChaosKillResurrect(t *testing.T) {
	f := newChaosFleet(t, WithSnapshotEvery(1))
	oracle, err := f.engines["a"].c.TargetOracle("S4")
	if err != nil {
		t.Fatal(err)
	}
	create := server.CreateSessionRequest{Initial: []string{"b"}}

	// Reference: the never-killed twin on a standalone engine.
	standalone := newEngine(t)
	wantAsked, wantRes := fullSequence(t, standalone.ts.URL, create, oracle)
	if len(wantAsked) < 2 {
		t.Fatalf("want a multi-question discovery, got %d questions", len(wantAsked))
	}

	var q server.QuestionResponse
	if code := do(t, "POST", f.front.URL+"/v1/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create via router: status %d", code)
	}
	var asked []string
	for i := 0; i < len(wantAsked)/2 && !q.Done; i++ {
		asked = append(asked, q.Entity)
		q = answerOnce(t, f.front.URL, q, oracle)
	}

	// SIGKILL the engine that owns the session: no drain, no state export.
	counts := sessionOwner(t, f.front.URL)
	var ownerName, survivor string
	for name := range f.engines {
		if counts[name] > 0 {
			ownerName = name
		} else {
			survivor = name
		}
	}
	if ownerName == "" || survivor == "" {
		t.Fatalf("no single owner: %v", counts)
	}
	// GET /v1/router/backends reports liveness from the health state
	// machine: both engines are alive before the kill.
	listed := func() map[string]BackendStats {
		t.Helper()
		var rows []BackendStats
		if code := do(t, "GET", f.front.URL+"/v1/router/backends", nil, &rows); code != http.StatusOK {
			t.Fatalf("list backends: status %d", code)
		}
		out := make(map[string]BackendStats)
		for _, row := range rows {
			out[row.Name] = row
		}
		return out
	}
	for name, row := range listed() {
		if !row.Alive {
			t.Errorf("backend %s listed not alive before the kill: %+v", name, row)
		}
	}
	f.proxies[ownerName].SetMode(testutil.ChaosReset)

	// Detection: dead after exactly FailThreshold consecutive probe rounds.
	f.detectDeath(t)
	if st, ok := f.rt.healthStateOf(ownerName); !ok || st != stateDead {
		t.Fatalf("owner %s state after threshold: %v", ownerName, st)
	}
	if row := listed()[ownerName]; row.Alive || row.Health != "dead" {
		t.Errorf("dead owner listed as %+v, want alive=false health=dead", row)
	}

	// The first post-crash response announces the resurrection.
	var resumed server.QuestionResponse
	status, hdr := getWithHeaders(t, f.front.URL+"/v1/sessions/"+q.SessionID+"/question", &resumed)
	if status != http.StatusOK {
		t.Fatalf("question after resurrection: status %d", status)
	}
	if got := hdr.Get(ResumedHeader); !strings.Contains(got, "from="+ownerName) {
		t.Errorf("%s header = %q, want from=%s", ResumedHeader, got, ownerName)
	}
	// Announced once, then cleared.
	_, hdr = getWithHeaders(t, f.front.URL+"/v1/sessions/"+q.SessionID+"/question", nil)
	if got := hdr.Get(ResumedHeader); got != "" {
		t.Errorf("second response still carries %s = %q", ResumedHeader, got)
	}
	if resumed.Entity != q.Entity || resumed.Confirm != q.Confirm || resumed.Questions != q.Questions {
		t.Fatalf("resumed at %+v, want the crash-point question %+v", resumed, q)
	}

	// The remaining discovery is byte-identical to the twin's.
	q = resumed
	for rounds := 0; !q.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("resurrected session did not converge")
		}
		if q.Entity != "" {
			asked = append(asked, q.Entity)
		}
		q = answerOnce(t, f.front.URL, q, oracle)
	}
	if len(asked) != len(wantAsked) {
		t.Fatalf("asked %v, twin asked %v", asked, wantAsked)
	}
	for i := range asked {
		if asked[i] != wantAsked[i] {
			t.Fatalf("question %d: asked %q, twin asked %q", i, asked[i], wantAsked[i])
		}
	}
	var res server.ResultResponse
	if code := do(t, "GET", f.front.URL+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.Target != wantRes.Target || res.Questions != wantRes.Questions {
		t.Errorf("result %+v, twin %+v", res, wantRes)
	}

	// The session now lives on the survivor.
	if counts := sessionOwner(t, f.front.URL); counts[survivor] != 1 {
		t.Errorf("session not tracked on survivor: %v", counts)
	}
}

// TestChaosAnswerWhileDead pins the degrade-gracefully shape: an answer for
// a session whose owner is dead and unresurrectable (no snapshot) is
// answered 503 with Retry-After, never blind-forwarded.
func TestChaosAnswerWhileDead(t *testing.T) {
	// Creation always captures a snapshot, whatever the cadence, so the
	// test makes the session unrecoverable by clearing that checkpoint by
	// hand below.
	f := newChaosFleet(t, WithSnapshotEvery(1))
	var q server.QuestionResponse
	if code := do(t, "POST", f.front.URL+"/v1/collections/paper/sessions",
		server.CreateSessionRequest{Initial: []string{"b"}}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	counts := sessionOwner(t, f.front.URL)
	var ownerName string
	for name, n := range counts {
		if n > 0 {
			ownerName = name
		}
	}
	// Make the session unrecoverable, then kill its owner: it must park.
	f.rt.mu.Lock()
	f.rt.owners[q.SessionID].snap = nil
	f.rt.mu.Unlock()
	f.proxies[ownerName].SetMode(testutil.ChaosReset)
	f.detectDeath(t)

	req, _ := http.NewRequest("POST", f.front.URL+"/v1/sessions/"+q.SessionID+"/answer",
		strings.NewReader(`{"answer":"yes"}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("answer at dead backend: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestRouterRestartPersistedAffinity pins the durable-affinity acceptance
// criterion: a router restarted over its persist log keeps serving a
// pre-existing session — same ID, no new create — because the backend set
// and the affinity table replay from disk.
func TestRouterRestartPersistedAffinity(t *testing.T) {
	eng := newEngine(t)
	logPath := filepath.Join(t.TempDir(), "routing.log")

	rt1 := New(WithLogf(t.Logf), WithPersist(logPath))
	if err := rt1.PersistError(); err != nil {
		t.Fatal(err)
	}
	if err := rt1.AddBackend("a", eng.ts.URL); err != nil {
		t.Fatal(err)
	}
	front1 := httptest.NewServer(rt1.Handler())
	oracle, err := eng.c.TargetOracle("S4")
	if err != nil {
		t.Fatal(err)
	}
	var q server.QuestionResponse
	if code := do(t, "POST", front1.URL+"/v1/collections/paper/sessions",
		server.CreateSessionRequest{Initial: []string{"b"}}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	q = answerOnce(t, front1.URL, q, oracle)
	front1.Close()

	// The restarted router: same log, no AddBackend calls needed.
	rt2 := New(WithLogf(t.Logf), WithPersist(logPath))
	if err := rt2.PersistError(); err != nil {
		t.Fatal(err)
	}
	// A daemon restart replays its -route flags too; the persisted set
	// makes that a distinguishable no-op.
	if err := rt2.AddBackend("a", eng.ts.URL); !errors.Is(err, ErrBackendExists) {
		t.Fatalf("replayed AddBackend: %v, want ErrBackendExists", err)
	}
	front2 := httptest.NewServer(rt2.Handler())
	t.Cleanup(front2.Close)

	for rounds := 0; !q.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("session did not converge after router restart")
		}
		q = answerOnce(t, front2.URL, q, oracle)
	}
	var res server.ResultResponse
	if code := do(t, "GET", front2.URL+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.Target != "S4" {
		t.Errorf("resolved %q, want S4", res.Target)
	}
}

// TestRetryTransientBackendErrors pins the retry split: an idempotent GET
// rides out transient 500s (exactly one request per attempt), while a
// non-idempotent answer POST is single-shot and surfaces the failure.
func TestRetryTransientBackendErrors(t *testing.T) {
	f := newChaosFleet(t)
	var q server.QuestionResponse
	if code := do(t, "POST", f.front.URL+"/v1/collections/paper/sessions",
		server.CreateSessionRequest{Initial: []string{"b"}}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	counts := sessionOwner(t, f.front.URL)
	var ownerName string
	for name, n := range counts {
		if n > 0 {
			ownerName = name
		}
	}
	proxy := f.proxies[ownerName]

	// Two injected 500s, then clean: the last attempt wins.
	proxy.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, "/question") })
	proxy.FailNext(retryAttempts-1, testutil.ChaosError500)
	before := proxy.Requests()
	if code := do(t, "GET", f.front.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &q); code != http.StatusOK {
		t.Fatalf("question through transient faults: status %d", code)
	}
	if got := proxy.Requests() - before; got != retryAttempts {
		t.Errorf("retried GET cost %d backend requests, want %d", got, retryAttempts)
	}

	// A faulted answer is NOT retried: one request, the 500 passes through.
	proxy.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, "/answer") })
	proxy.FailNext(1, testutil.ChaosError500)
	before = proxy.Requests()
	var e server.ErrorResponse
	if code := do(t, "POST", f.front.URL+"/v1/sessions/"+q.SessionID+"/answer",
		server.AnswerRequest{Answer: "yes", Entity: q.Entity, Confirm: q.Confirm}, &e); code != http.StatusInternalServerError {
		t.Fatalf("faulted answer: status %d, want 500 passed through", code)
	}
	if got := proxy.Requests() - before; got != 1 {
		t.Errorf("single-shot answer cost %d backend requests, want 1", got)
	}
}

// TestAnswerTimeoutBound pins the per-attempt deadline fix: a hung engine
// (black-holed answer) fails the request at the configured proxy timeout,
// not a shared 30s client timeout, and the 502 carries Retry-After advice.
func TestAnswerTimeoutBound(t *testing.T) {
	f := newChaosFleet(t, WithProxyTimeout(200*time.Millisecond))
	var q server.QuestionResponse
	if code := do(t, "POST", f.front.URL+"/v1/collections/paper/sessions",
		server.CreateSessionRequest{Initial: []string{"b"}}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	counts := sessionOwner(t, f.front.URL)
	var ownerName string
	for name, n := range counts {
		if n > 0 {
			ownerName = name
		}
	}
	proxy := f.proxies[ownerName]
	proxy.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, "/answer") })
	proxy.SetMode(testutil.ChaosBlackhole)

	start := time.Now()
	req, _ := http.NewRequest("POST", f.front.URL+"/v1/sessions/"+q.SessionID+"/answer",
		strings.NewReader(`{"answer":"yes"}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("black-holed answer: status %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("502 from a hung engine without Retry-After")
	}
	if elapsed > 3*time.Second {
		t.Errorf("answer against hung engine took %v, want ~200ms per-attempt bound", elapsed)
	}
}

// TestChaosEveryTrackedResourceResurrects holds 4,200 live sessions, more
// than a 4,096-entry cache of checkpoints would keep, and answers each
// once in creation order. Each resource's checkpoint lives in its owner
// entry, so no answer re-captures a checkpoint another session's capture
// evicted, every tracked ID holds one, and when the owner dies every
// session resumes on the survivor at the question its twin asks next.
func TestChaosEveryTrackedResourceResurrects(t *testing.T) {
	const sessions = 4200
	f := newChaosFleet(t)
	oracle, err := f.engines["a"].c.TargetOracle("S5")
	if err != nil {
		t.Fatal(err)
	}
	wantAsked, _ := fullSequence(t, newEngine(t).ts.URL, server.CreateSessionRequest{}, oracle)
	if len(wantAsked) < 3 {
		t.Fatalf("want a discovery of at least 3 questions, got %v", wantAsked)
	}

	qs := make([]server.QuestionResponse, sessions)
	for i := range qs {
		if code := do(t, "POST", f.front.URL+"/v1/collections/paper/sessions", server.CreateSessionRequest{}, &qs[i]); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
	}
	before := f.rt.metrics.captures.Load()
	for i := range qs {
		qs[i] = answerOnce(t, f.front.URL, qs[i], oracle)
	}
	if got := f.rt.metrics.captures.Load() - before; got != 0 {
		t.Errorf("one answer per session captured %d snapshots, want 0", got)
	}
	f.rt.mu.RLock()
	tracked, bare := len(f.rt.owners), 0
	for _, own := range f.rt.owners {
		if own.snap == nil {
			bare++
		}
	}
	f.rt.mu.RUnlock()
	if tracked != sessions || bare != 0 {
		t.Fatalf("%d tracked IDs, %d without a checkpoint; want %d, 0", tracked, bare, sessions)
	}

	dead := f.rt.ringOwner("paper")
	f.proxies[dead.name].SetMode(testutil.ChaosReset)
	f.detectDeath(t)
	if got := f.rt.metrics.resurrections.Load(); got != sessions {
		t.Errorf("%d resurrections, want %d", got, sessions)
	}
	failed := 0
	for _, q := range qs {
		var next server.QuestionResponse
		code := do(t, "POST", f.front.URL+"/v1/sessions/"+q.SessionID+"/answer",
			server.AnswerRequest{Answer: wireAnswer(oracle, q.Entity, q.Confirm), Entity: q.Entity, Confirm: q.Confirm}, &next)
		if code != http.StatusOK || next.Questions != 2 || next.Entity != wantAsked[2] {
			failed++
		}
	}
	if failed != 0 {
		t.Fatalf("%d of %d sessions did not answer their second question on the survivor", failed, sessions)
	}
	if counts := sessionOwner(t, f.front.URL); counts[dead.name] != 0 {
		t.Errorf("%d sessions still tracked on the dead owner", counts[dead.name])
	}
}

// TestChaosResurrectionNotQueued holds one victim's answer lock, as a
// round in flight to the dead owner would, while the probe rounds declare
// the owner dead. Every other victim must reach the survivor meanwhile,
// and the probe round returns only once the held victim is resurrected
// too.
func TestChaosResurrectionNotQueued(t *testing.T) {
	const sessions = 32
	f := newChaosFleet(t)
	ids := make([]string, sessions)
	for i := range ids {
		var q server.QuestionResponse
		if code := do(t, "POST", f.front.URL+"/v1/collections/paper/sessions", server.CreateSessionRequest{}, &q); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids[i] = q.SessionID
	}
	dead := f.rt.ringOwner("paper")
	onDead := func(id string) bool {
		f.rt.mu.RLock()
		defer f.rt.mu.RUnlock()
		return f.rt.owners[id].b == dead
	}

	held := f.rt.lockAnswers(ids[0])
	f.proxies[dead.name].SetMode(testutil.ChaosReset)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		f.detectDeath(t)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		moved := 0
		for _, id := range ids[1:] {
			if !onDead(id) {
				moved++
			}
		}
		if moved == sessions-1 {
			break
		}
		if time.Now().After(deadline) {
			held.answerMu.Unlock()
			<-probed
			t.Fatalf("%d of %d victims reached the survivor while one victim's answer lock was held", moved, sessions-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-probed:
		t.Error("the probe round returned before the held victim was resurrected")
	default:
	}
	if !onDead(ids[0]) {
		t.Error("the held victim left the dead owner while its answer lock was held")
	}
	held.answerMu.Unlock()
	<-probed
	if onDead(ids[0]) {
		t.Error("the held victim was not resurrected once its answer lock was released")
	}
}

// TestChaosImportedStateCannotSteerMemo: a client-supplied snapshot cannot
// change the questions other sessions are asked. The recorded version-2
// envelope of an earlier release, its memo entry rewritten to name b (which
// every candidate from seed {b} contains), is imported through the router:
// the collection's ring owner, which serves every session of the
// collection, restores it, and the router keeps it as the resource's
// checkpoint. A fresh session from {b} must then ask what an independent
// engine asks, and finish; so must one on the survivor after the importing
// owner dies and the import is resurrected there from its checkpoint.
func TestChaosImportedStateCannotSteerMemo(t *testing.T) {
	env, err := os.ReadFile(filepath.Join("..", "..", "testdata", "snapshot-v2-seed-b.bin"))
	if err != nil {
		t.Fatal(err)
	}
	f := newChaosFleet(t)
	oracle, err := f.engines["a"].c.TargetOracle("S5")
	if err != nil {
		t.Fatal(err)
	}
	create := server.CreateSessionRequest{Initial: []string{"b"}}
	wantAsked, wantRes := fullSequence(t, newEngine(t).ts.URL, create, oracle)

	tampered := bytes.Clone(env)
	tampered[len(tampered)-1] = byte(testutil.Entity(f.engines["a"].c.Internal(), "b"))
	const id = "imported-tampered"
	if code := do(t, "PUT", f.front.URL+"/v1/sessions/"+id+"/state",
		server.ImportStateRequest{Collection: "paper", State: tampered}, nil); code != http.StatusOK {
		t.Fatalf("import via router: status %d", code)
	}
	honest := func(when string) {
		t.Helper()
		asked, res := fullSequence(t, f.front.URL, create, oracle)
		if !reflect.DeepEqual(asked, wantAsked) || res.Target != wantRes.Target {
			t.Fatalf("%s: a fresh session asked %v and found %q; an independent engine asked %v and found %q",
				when, asked, res.Target, wantAsked, wantRes.Target)
		}
	}
	honest("after the import")

	f.rt.mu.RLock()
	importer := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()
	f.proxies[importer].SetMode(testutil.ChaosReset)
	f.detectDeath(t)
	f.rt.mu.RLock()
	now := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()
	if now == importer {
		t.Fatalf("imported resource still on its dead owner %s", importer)
	}
	honest("after resurrecting the import on " + now)
}
