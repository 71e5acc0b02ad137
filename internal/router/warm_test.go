package router

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"setdiscovery"
	"setdiscovery/internal/server"
	"setdiscovery/internal/testutil"
)

// warmEngine resolves one session per target directly against an engine, so
// its collection memo holds every popular prefix state.
func warmEngine(t *testing.T, e *engine) {
	t.Helper()
	for _, name := range e.c.Names() {
		oracle, err := e.c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, res := fullSequence(t, e.ts.URL, server.CreateSessionRequest{}, oracle); res.Target != name {
			t.Fatalf("warm-up found %q, want %q", res.Target, name)
		}
	}
}

// TestAddBackendWarmsFromPeer is the fleet-warming acceptance pin: an engine
// added to a router with an established peer receives the peer's selection-
// cache shard, and its first session over a popular prefix serves with memo
// hits and the byte-identical question sequence a cold twin computes.
func TestAddBackendWarmsFromPeer(t *testing.T) {
	warm := newEngine(t)
	warmEngine(t, warm)
	if warm.c.SelectionCacheStats().Entries == 0 {
		t.Fatal("established engine has no cache entries")
	}

	rt := New(WithLogf(t.Logf))
	if err := rt.AddBackend("a", warm.ts.URL); err != nil {
		t.Fatal(err)
	}

	fresh := newEngine(t)
	if got := fresh.c.SelectionCacheStats().Entries; got != 0 {
		t.Fatalf("fresh engine starts with %d cache entries", got)
	}
	if err := rt.AddBackend("b", fresh.ts.URL); err != nil {
		t.Fatal(err)
	}
	warmedEntries := fresh.c.SelectionCacheStats().Entries
	if warmedEntries == 0 {
		t.Fatal("AddBackend did not warm the new engine from its peer")
	}

	// Reference: a cold twin (outside the fleet) computes the sequence from
	// scratch.
	cold := newEngine(t)
	name := cold.c.Names()[len(cold.c.Names())-1]
	coldOracle, err := cold.c.TargetOracle(name)
	if err != nil {
		t.Fatal(err)
	}
	wantAsked, wantRes := fullSequence(t, cold.ts.URL, server.CreateSessionRequest{}, coldOracle)

	// The warmed engine's first session: identical questions, served with
	// memo hits instead of computations.
	before := fresh.c.SelectionCacheStats()
	oracle, err := fresh.c.TargetOracle(name)
	if err != nil {
		t.Fatal(err)
	}
	gotAsked, gotRes := fullSequence(t, fresh.ts.URL, server.CreateSessionRequest{}, oracle)
	if !reflect.DeepEqual(gotAsked, wantAsked) {
		t.Fatalf("warmed engine asked %v, cold twin asked %v", gotAsked, wantAsked)
	}
	if gotRes.Target != wantRes.Target || gotRes.Questions != wantRes.Questions {
		t.Fatalf("warmed result %+v, cold %+v", gotRes.ResultBody, wantRes.ResultBody)
	}
	after := fresh.c.SelectionCacheStats()
	if after.Hits-before.Hits < 1 {
		t.Fatalf("warmed engine served its first session without memo hits: before %+v after %+v", before, after)
	}
	if after.Computed != before.Computed {
		t.Fatalf("warmed engine computed %d selections on the popular prefix, want 0",
			after.Computed-before.Computed)
	}

	// Fleet stats aggregate the per-engine cache counters.
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	var stats RouterStatsResponse
	if code := do(t, "GET", front.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.CacheEntries == 0 || stats.CacheHits == 0 {
		t.Fatalf("fleet stats did not aggregate cache counters: %+v", stats)
	}
	var fromRows setdiscovery.SelectionCacheStats
	for _, row := range stats.Backends {
		if !row.Alive {
			t.Fatalf("backend %s not alive in stats", row.Name)
		}
		fromRows.Hits += row.CacheHits
		fromRows.Entries += row.CacheEntries
	}
	if fromRows.Hits != stats.CacheHits || fromRows.Entries != stats.CacheEntries {
		t.Fatalf("fleet totals %d/%d disagree with row sums %d/%d",
			stats.CacheHits, stats.CacheEntries, fromRows.Hits, fromRows.Entries)
	}
}

// TestAddBackendWarmFailuresAreAdvisory: a dead peer must not fail
// AddBackend — warming is best-effort performance state.
func TestAddBackendWarmFailuresAreAdvisory(t *testing.T) {
	dead := newEngine(t)
	deadURL := dead.ts.URL
	dead.ts.Close()

	rt := New(WithLogf(t.Logf))
	if err := rt.AddBackend("dead", deadURL); err != nil {
		t.Fatal(err)
	}
	fresh := newEngine(t)
	if err := rt.AddBackend("b", fresh.ts.URL); err != nil {
		t.Fatalf("AddBackend failed on unreachable warm peer: %v", err)
	}
	if got := fresh.c.SelectionCacheStats().Entries; got != 0 {
		t.Fatalf("warming from a dead peer imported %d entries", got)
	}
}

// TestChaosAddBackendSkipsDeadPeer: AddBackend warms a newcomer only from
// peers the health loop lets serve. Peer a is black-holed and declared dead,
// so listing its collections would wait out opTimeout (30 s); AddBackend
// must skip it and warm the newcomer from the live peer b at once.
func TestChaosAddBackendSkipsDeadPeer(t *testing.T) {
	f := newChaosFleet(t, WithHealth(HealthConfig{Timeout: 100 * time.Millisecond}))
	warmEngine(t, f.engines["b"])
	want := f.engines["b"].c.SelectionCacheStats().Entries
	if want == 0 {
		t.Fatal("live peer has no cache entries")
	}
	f.proxies["a"].SetMode(testutil.ChaosBlackhole)
	f.detectDeath(t)
	if st, ok := f.rt.healthStateOf("a"); !ok || st != stateDead {
		t.Fatalf("black-holed peer a is %v, want dead", st)
	}

	fresh := newEngine(t)
	start := time.Now()
	if err := f.rt.AddBackend("c", fresh.ts.URL); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("AddBackend took %v with a dead peer, want under 5s", elapsed)
	}
	if got := fresh.c.SelectionCacheStats().Entries; got != want {
		t.Fatalf("newcomer holds %d cache entries, live peer b holds %d", got, want)
	}
}
