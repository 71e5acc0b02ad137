package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"setdiscovery"
)

// Backward-compatibility gate for the pre-versioning protocol: before the
// /v1/ redesign the server mounted these routes unversioned, and clients
// built against that surface must keep working unchanged. The suite below
// re-runs the pre-redesign handler flows — session lifecycle, batch rounds,
// error statuses, the retry guard — against the unversioned aliases, and
// CI runs it as a dedicated gate (see .github/workflows/ci.yml).

// legacyResolve is the pre-redesign scripted client: identical to resolve()
// but over the unversioned routes.
func legacyResolve(t *testing.T, baseURL string, create CreateSessionRequest, oracle setdiscovery.Oracle) ResultResponse {
	t.Helper()
	var q QuestionResponse
	if code := do(t, "POST", baseURL+"/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if q.SessionID == "" {
		t.Fatal("create session returned no session_id")
	}
	for rounds := 0; !q.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("session did not converge")
		}
		var next QuestionResponse
		if code := do(t, "POST", baseURL+"/sessions/"+q.SessionID+"/answer",
			AnswerRequest{Answer: wireAnswer(oracle, q.Entity, q.Confirm), Entity: q.Entity, Confirm: q.Confirm}, &next); code != http.StatusOK {
			t.Fatalf("answer for {entity:%q confirm:%q}: status %d", q.Entity, q.Confirm, code)
		}
		q = next
	}
	var res ResultResponse
	if code := do(t, "GET", baseURL+"/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	return res
}

// TestCompatEndToEndDiscovery: the pre-redesign acceptance flow over the
// legacy unversioned routes, for strategy-loop, initial-example, batched
// and prebuilt-tree sessions, including §6 backtracking.
func TestCompatEndToEndDiscovery(t *testing.T) {
	_, ts, c := newTestServer(t)
	cases := []struct {
		name   string
		create CreateSessionRequest
	}{
		{"default", CreateSessionRequest{}},
		{"initial-example", CreateSessionRequest{Initial: []string{"b"}}},
		{"batched", CreateSessionRequest{SessionConfig: SessionConfig{Strategy: "most-even", BatchSize: 3}}},
		{"tree", CreateSessionRequest{Tree: true}},
		{"backtracking", CreateSessionRequest{SessionConfig: SessionConfig{Backtrack: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7"} {
				if len(tc.create.Initial) > 0 && target == "S2" {
					continue // S2 does not contain the initial example "b"
				}
				oracle, err := c.TargetOracle(target)
				if err != nil {
					t.Fatal(err)
				}
				res := legacyResolve(t, ts.URL, tc.create, oracle)
				if !res.Done || res.Target != target || res.Error != "" {
					t.Errorf("target %s: done=%v discovered %q error %q", target, res.Done, res.Target, res.Error)
				}
			}
		})
	}
}

// TestCompatStatuses: the legacy aliases answer with the pre-redesign
// status codes for every error class.
func TestCompatStatuses(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/collections/nope/sessions", CreateSessionRequest{}, &e); code != http.StatusNotFound {
		t.Errorf("unknown collection: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/collections/paper/sessions",
		CreateSessionRequest{SessionConfig: SessionConfig{Strategy: "bogus"}}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/sessions/deadbeef/question", nil, &e); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}
	var infos []CollectionInfo
	if code := do(t, "GET", ts.URL+"/collections", nil, &infos); code != http.StatusOK ||
		len(infos) != 1 || infos[0].Name != "paper" {
		t.Errorf("list collections: status %d, %+v", code, infos)
	}

	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "maybe"}, &e); code != http.StatusBadRequest {
		t.Errorf("invalid answer: status %d", code)
	}
	// A malformed answer is 400 even when it also names a stale question —
	// the pre-redesign handler parsed the answer before the assertion.
	if code := do(t, "POST", ts.URL+"/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "maybe", Entity: "zzz"}, &e); code != http.StatusBadRequest {
		t.Errorf("invalid answer with stale assertion: status %d, want 400", code)
	}
	// The retry guard: answering a no-longer-pending question is 409.
	first := q
	if code := do(t, "POST", ts.URL+"/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "no", Entity: first.Entity}, &q); code != http.StatusOK {
		t.Fatalf("correlated answer: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "no", Entity: first.Entity}, &e); code != http.StatusConflict {
		t.Errorf("stale retry: status %d, want 409", code)
	}
	if code := do(t, "DELETE", ts.URL+"/sessions/"+q.SessionID, nil, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/sessions/"+q.SessionID+"/question", nil, &e); code != http.StatusNotFound {
		t.Errorf("question after delete: status %d", code)
	}
	// Unknown JSON fields are still rejected.
	resp, err := http.Post(ts.URL+"/collections/paper/sessions", "application/json",
		strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}
}

// TestCompatBatchRoundTrip: the batch endpoints behave identically over the
// legacy aliases.
func TestCompatBatchRoundTrip(t *testing.T) {
	_, ts, c := newTestServer(t)
	targets := []string{"S2", "S6"}
	oracles := make([]setdiscovery.Oracle, len(targets))
	for i, name := range targets {
		o, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	var snap BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/collections/paper/batches",
		CreateBatchRequest{Seeds: []BatchSeed{{}, {}}}, &snap); code != http.StatusCreated {
		t.Fatalf("create batch: status %d", code)
	}
	for rounds := 0; !snap.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("batch did not converge")
		}
		var req BatchAnswerRequest
		for _, m := range snap.Members {
			if m.Done {
				continue
			}
			req.Answers = append(req.Answers, MemberAnswerRequest{
				Member: m.Member,
				Answer: wireAnswer(oracles[m.Member], m.Entity, m.Confirm),
				Entity: m.Entity, Confirm: m.Confirm,
			})
		}
		if code := do(t, "POST", ts.URL+"/batches/"+snap.BatchID+"/answers", &req, &snap); code != http.StatusOK {
			t.Fatalf("answers: status %d", code)
		}
	}
	var results BatchResultsResponse
	if code := do(t, "GET", ts.URL+"/batches/"+snap.BatchID+"/results", nil, &results); code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	for i, mr := range results.Members {
		if mr.Target != targets[i] {
			t.Errorf("member %d resolved %q, want %q", i, mr.Target, targets[i])
		}
	}
	if code := do(t, "DELETE", ts.URL+"/batches/"+snap.BatchID, nil, nil); code != http.StatusNoContent {
		t.Errorf("delete batch: status %d", code)
	}
}

// TestCompatHealthzBody pins the pre-versioning /healthz byte for byte:
// probes configured to match the plain-text "ok\n" body must keep passing.
func TestCompatHealthzBody(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body[:n]) != "ok\n" {
		t.Errorf("legacy /healthz: status %d body %q, want 200 %q", resp.StatusCode, body[:n], "ok\n")
	}
}

// TestCompatVersionedAliasEquivalence pins that the legacy aliases and the
// /v1/ routes are the same handlers: a session created through one surface
// is visible and drivable through the other.
func TestCompatVersionedAliasEquivalence(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("legacy create: status %d", code)
	}
	var v1Q, legacyQ QuestionResponse
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &v1Q); code != http.StatusOK {
		t.Fatalf("v1 question: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/sessions/"+q.SessionID+"/question", nil, &legacyQ); code != http.StatusOK {
		t.Fatalf("legacy question: status %d", code)
	}
	if !reflect.DeepEqual(v1Q, legacyQ) {
		t.Errorf("surfaces diverged: v1 %+v, legacy %+v", v1Q, legacyQ)
	}
	// Answer through v1, observe through legacy.
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "yes"}, &v1Q); code != http.StatusOK {
		t.Fatalf("v1 answer: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/sessions/"+q.SessionID+"/question", nil, &legacyQ); code != http.StatusOK {
		t.Fatalf("legacy question: status %d", code)
	}
	if legacyQ.Questions != 1 || legacyQ.Entity != v1Q.Entity {
		t.Errorf("answer through v1 not visible through legacy alias: %+v vs %+v", legacyQ, v1Q)
	}
}

// TestCompatGroupSessionLegacyRoutes: group (set-valued question) sessions
// are fully drivable over the legacy unversioned aliases — create, subset
// question rounds with the assertion echo, mid-flight state export/import,
// result — with no /v1/ anywhere in the path.
func TestCompatGroupSessionLegacyRoutes(t *testing.T) {
	_, ts, _ := newTestServer(t)
	target := map[string]bool{"a": true, "d": true, "e": true} // S2

	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/collections/paper/sessions",
		CreateSessionRequest{SessionConfig: SessionConfig{GroupStrategy: "halving"}}, &q); code != http.StatusCreated {
		t.Fatalf("legacy group create: status %d", code)
	}
	if len(q.Subset) == 0 {
		t.Fatalf("expected a subset question over the legacy alias, got %#v", q)
	}
	id := q.SessionID

	// One answered round, then suspend: export over the legacy alias and
	// import the snapshot under a fresh ID, also over the legacy alias.
	if code := do(t, "POST", ts.URL+"/sessions/"+id+"/answer", AnswerRequest{
		Answer: groupAnswer(target, q.Subset, q.Semantics), Subset: q.Subset, Semantics: q.Semantics,
	}, &q); code != http.StatusOK {
		t.Fatalf("legacy group answer: status %d", code)
	}
	var state StateResponse
	if code := do(t, "GET", ts.URL+"/sessions/"+id+"/state", nil, &state); code != http.StatusOK {
		t.Fatalf("legacy group state export: status %d", code)
	}
	twinID := "legacy-twin-" + id
	var twinQ QuestionResponse
	if code := do(t, "PUT", ts.URL+"/sessions/"+twinID+"/state",
		ImportStateRequest{Collection: state.Collection, State: state.State}, &twinQ); code != http.StatusOK {
		t.Fatalf("legacy group state import: status %d", code)
	}

	finish := func(id string, q QuestionResponse) ([]string, ResultResponse) {
		var asked []string
		for i := 0; !q.Done; i++ {
			if i > 100 {
				t.Fatal("legacy group session did not converge")
			}
			if len(q.Subset) == 0 {
				t.Fatalf("expected a subset question, got %#v", q)
			}
			asked = append(asked, fmt.Sprintf("s:%s:%v", q.Semantics, q.Subset))
			var next QuestionResponse
			if code := do(t, "POST", ts.URL+"/sessions/"+id+"/answer", AnswerRequest{
				Answer: groupAnswer(target, q.Subset, q.Semantics), Subset: q.Subset, Semantics: q.Semantics,
			}, &next); code != http.StatusOK {
				t.Fatalf("legacy group answer: status %d", code)
			}
			q = next
		}
		var res ResultResponse
		if code := do(t, "GET", ts.URL+"/sessions/"+id+"/result", nil, &res); code != http.StatusOK {
			t.Fatalf("legacy group result: status %d", code)
		}
		return asked, res
	}
	asked, res := finish(id, q)
	twinAsked, twinRes := finish(twinID, twinQ)
	if res.Target != "S2" || twinRes.Target != "S2" {
		t.Fatalf("legacy group sessions resolved %q and %q, want S2", res.Target, twinRes.Target)
	}
	if !reflect.DeepEqual(asked, twinAsked) {
		t.Fatalf("imported twin diverged from the original:\n original %v\n twin     %v", asked, twinAsked)
	}
}

// TestCompatPreBumpSnapshotImport: snapshot envelopes produced before the
// group version bump (version-1 sessions, and the version-2 envelope an
// earlier release wrote for shared-selection sessions, recorded under the
// repository's testdata) must keep importing over both surfaces — a fleet
// mid-upgrade migrates old sessions onto new engines. An import leaves the
// collection's selection memo as it was: a version-2 memo section is skipped.
func TestCompatPreBumpSnapshotImport(t *testing.T) {
	_, ts, c := newTestServer(t)
	oracle, err := c.TargetOracle("S4")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []byte {
		s, err := c.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		if q, done := s.Next(); !done && !q.IsConfirm() {
			if err := s.Answer(oracle.Answer(q.Entity)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	v2, err := os.ReadFile(filepath.Join("..", "..", "testdata", "snapshot-v2-seed-b.bin"))
	if err != nil {
		t.Fatal(err)
	}
	envelopes := []struct {
		name string
		snap []byte
	}{
		{"v2-shared-selection", v2},
		{"v1-delta-less", mk()},
	}
	for _, env := range envelopes {
		name, snap := env.name, env.snap
		for _, prefix := range []string{"", "/v1"} {
			id := fmt.Sprintf("prebump-%s%s", name, strings.ReplaceAll(prefix, "/", "-"))
			var q QuestionResponse
			before := c.SelectionCacheStats().Entries
			if code := do(t, "PUT", ts.URL+prefix+"/sessions/"+id+"/state",
				ImportStateRequest{Collection: "paper", State: snap}, &q); code != http.StatusOK {
				t.Fatalf("%s via %q: import status %d", name, prefix, code)
			}
			if after := c.SelectionCacheStats().Entries; after != before {
				t.Fatalf("%s via %q: import changed the memo from %d to %d entries", name, prefix, before, after)
			}
			for i := 0; !q.Done; i++ {
				if i > 100 {
					t.Fatalf("%s via %q: imported session did not converge", name, prefix)
				}
				var next QuestionResponse
				if code := do(t, "POST", ts.URL+prefix+"/sessions/"+id+"/answer", AnswerRequest{
					Answer: wireAnswer(oracle, q.Entity, q.Confirm), Entity: q.Entity, Confirm: q.Confirm,
				}, &next); code != http.StatusOK {
					t.Fatalf("%s via %q: answer status %d", name, prefix, code)
				}
				q = next
			}
			var res ResultResponse
			if code := do(t, "GET", ts.URL+prefix+"/sessions/"+id+"/result", nil, &res); code != http.StatusOK {
				t.Fatalf("%s via %q: result status %d", name, prefix, code)
			}
			if res.Target != "S4" {
				t.Fatalf("%s via %q: discovered %q, want S4", name, prefix, res.Target)
			}
		}
	}
}

// TestCompatTreeWalkState: tree-walk states (snapshot kind 2) that earlier
// releases exported keep importing over both surfaces onto an engine with
// the tree registered, and finish. Both were recorded over the paper
// collection's default tree for target S5, suspended after the root
// question d. Answered No, the session asks the walk's g and h. Answered
// "don't know", the walk had stopped with all 7 sets; the session excludes
// d and asks c, b, g and h.
func TestCompatTreeWalkState(t *testing.T) {
	_, ts, c := newTestServer(t)
	oracle, err := c.TargetOracle("S5")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		file string
		asks []string
	}{
		{"snapshot-tree-walk-s5.bin", []string{"g", "h"}},
		{"snapshot-tree-walk-unknown.bin", []string{"c", "b", "g", "h"}},
	} {
		snap, err := os.ReadFile(filepath.Join("..", "..", "testdata", f.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, prefix := range []string{"", "/v1"} {
			id := fmt.Sprintf("tree-walk-%s%s", strings.TrimSuffix(f.file, ".bin"), strings.ReplaceAll(prefix, "/", "-"))
			var q QuestionResponse
			if code := do(t, "PUT", ts.URL+prefix+"/sessions/"+id+"/state",
				ImportStateRequest{Collection: "paper", State: snap}, &q); code != http.StatusOK {
				t.Fatalf("%s via %q: import status %d", f.file, prefix, code)
			}
			var asks []string
			for !q.Done {
				if len(asks) > 100 {
					t.Fatalf("%s via %q: imported session did not converge", f.file, prefix)
				}
				asks = append(asks, q.Entity)
				var next QuestionResponse
				if code := do(t, "POST", ts.URL+prefix+"/sessions/"+id+"/answer", AnswerRequest{
					Answer: wireAnswer(oracle, q.Entity, q.Confirm), Entity: q.Entity, Confirm: q.Confirm,
				}, &next); code != http.StatusOK {
					t.Fatalf("%s via %q: answer status %d", f.file, prefix, code)
				}
				q = next
			}
			var res ResultResponse
			if code := do(t, "GET", ts.URL+prefix+"/sessions/"+id+"/result", nil, &res); code != http.StatusOK {
				t.Fatalf("%s via %q: result status %d", f.file, prefix, code)
			}
			if res.Target != "S5" || !reflect.DeepEqual(asks, f.asks) {
				t.Fatalf("%s via %q: discovered %q after %v, want S5 after %v", f.file, prefix, res.Target, asks, f.asks)
			}
		}
	}
}

// TestCompatConcurrentClients: the pre-redesign concurrency acceptance over
// the legacy surface (run with -race).
func TestCompatConcurrentClients(t *testing.T) {
	_, ts, c := newTestServer(t)
	names := []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7"}
	const clients = 14
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			target := names[g%len(names)]
			oracle, err := c.TargetOracle(target)
			if err != nil {
				t.Errorf("client %d: %v", g, err)
				return
			}
			res := legacyResolve(t, ts.URL, CreateSessionRequest{}, oracle)
			if res.Target != target {
				t.Errorf("client %d: discovered %q, want %q", g, res.Target, target)
			}
		}(g)
	}
	wg.Wait()
}
