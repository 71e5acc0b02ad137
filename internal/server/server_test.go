package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"setdiscovery"
)

// paperSets is the Fig. 1 running example.
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

// newTestServer registers the paper collection (with a prebuilt tree) on a
// fresh Server and returns it with an httptest frontend.
func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *setdiscovery.Collection) {
	t.Helper()
	c, err := setdiscovery.NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(opts...)
	if err := srv.Register("paper", c); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTree("paper", tr); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, c
}

// do performs one JSON exchange and decodes the response into out (when
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body, out any) int {
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

// resolve runs a scripted client against the server: create a session,
// answer every question from the oracle, fetch the result. This is the
// end-to-end acceptance flow of the serving layer.
func resolve(t *testing.T, baseURL string, create CreateSessionRequest, oracle setdiscovery.Oracle) ResultResponse {
	t.Helper()
	var q QuestionResponse
	if code := do(t, "POST", baseURL+"/v1/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if q.SessionID == "" {
		t.Fatal("create session returned no session_id")
	}
	for rounds := 0; !q.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("session did not converge")
		}
		var answer string
		switch {
		case q.Confirm != "":
			answer = "no"
			if conf, ok := oracle.(setdiscovery.Confirmer); ok && conf.Confirm(q.Confirm) {
				answer = "yes"
			}
		case q.Entity != "":
			switch oracle.Answer(q.Entity) {
			case setdiscovery.Yes:
				answer = "yes"
			case setdiscovery.No:
				answer = "no"
			default:
				answer = "unknown"
			}
		default:
			t.Fatalf("question response carries neither entity nor confirm: %+v", q)
		}
		// Echo the question being answered — the retry-safe client protocol.
		// Decode into a fresh struct: omitempty responses leave absent
		// fields untouched, and a stale Entity next to a new Confirm would
		// name a question that cannot exist.
		var next QuestionResponse
		if code := do(t, "POST", baseURL+"/v1/sessions/"+q.SessionID+"/answer",
			AnswerRequest{Answer: answer, Entity: q.Entity, Confirm: q.Confirm}, &next); code != http.StatusOK {
			t.Fatalf("answer for {entity:%q confirm:%q}: status %d", q.Entity, q.Confirm, code)
		}
		q = next
	}
	var res ResultResponse
	if code := do(t, "GET", baseURL+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	return res
}

// TestEndToEndDiscovery is the acceptance criterion: a scripted client
// resolves every target of the paper collection through HTTP round-trips,
// for strategy-loop, initial-example, batch and prebuilt-tree sessions.
func TestEndToEndDiscovery(t *testing.T) {
	_, ts, c := newTestServer(t)
	cases := []struct {
		name   string
		create CreateSessionRequest
	}{
		{"default", CreateSessionRequest{}},
		{"initial-example", CreateSessionRequest{Initial: []string{"b"}}},
		{"batched", CreateSessionRequest{SessionConfig: SessionConfig{Strategy: "most-even", BatchSize: 3}}},
		{"tree", CreateSessionRequest{Tree: true}},
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
				res := resolve(t, ts.URL, tc.create, oracle)
				if !res.Done || res.Target != target {
					t.Errorf("target %s: done=%v discovered %q (%+v)", target, res.Done, res.Target, res)
				}
				if res.Error != "" {
					t.Errorf("target %s: unexpected result error %q", target, res.Error)
				}
			}
		})
	}
}

// TestEndToEndBacktracking exercises §6 over the wire: the client's first
// answer is a lie, the confirmation question exposes it, and backtracking
// still recovers the true target.
func TestEndToEndBacktracking(t *testing.T) {
	_, ts, c := newTestServer(t)
	for _, target := range []string{"S1", "S4", "S7"} {
		inner, err := c.TargetOracle(target)
		if err != nil {
			t.Fatal(err)
		}
		res := resolve(t, ts.URL, CreateSessionRequest{SessionConfig: SessionConfig{Backtrack: true}},
			&lieFirstOracle{inner: inner})
		if res.Target != target {
			t.Errorf("target %s: recovered %q (%+v)", target, res.Target, res)
		}
		if res.Backtracks == 0 {
			t.Errorf("target %s: no backtracks despite a lying answer", target)
		}
	}
}

// lieFirstOracle flips its first membership answer; confirmation is
// truthful.
type lieFirstOracle struct {
	inner setdiscovery.Oracle
	lied  bool
}

func (l *lieFirstOracle) Answer(entity string) setdiscovery.Answer {
	a := l.inner.Answer(entity)
	if !l.lied {
		l.lied = true
		if a == setdiscovery.Yes {
			return setdiscovery.No
		}
		return setdiscovery.Yes
	}
	return a
}

func (l *lieFirstOracle) Confirm(setName string) bool {
	return l.inner.(setdiscovery.Confirmer).Confirm(setName)
}

func TestListCollections(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var infos []CollectionInfo
	if code := do(t, "GET", ts.URL+"/v1/collections", nil, &infos); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(infos) != 1 || infos[0].Name != "paper" || infos[0].Sets != 7 || !infos[0].Tree {
		t.Errorf("collections = %+v", infos)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t)

	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/nope/sessions", CreateSessionRequest{}, &e); code != http.StatusNotFound {
		t.Errorf("unknown collection: status %d", code)
	}
	// The collection lookup precedes the body decode: an unknown collection
	// is 404 even when the body is malformed too.
	for _, kind := range []string{"sessions", "batches"} {
		resp, err := http.Post(ts.URL+"/v1/collections/nope/"+kind, "application/json", strings.NewReader("{bad"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown collection with a malformed %s body: status %d, want 404", kind, resp.StatusCode)
		}
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{SessionConfig: SessionConfig{Strategy: "bogus"}}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{SessionConfig: SessionConfig{Metric: "xyz"}}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown metric: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{Initial: []string{"zzz"}}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown initial entity: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{Tree: true, Initial: []string{"b"}}, &e); code != http.StatusBadRequest {
		t.Errorf("tree session with initial examples: status %d", code)
	}

	for _, url := range []string{
		"/v1/sessions/deadbeef/question",
		"/v1/sessions/deadbeef/result",
	} {
		if code := do(t, "GET", ts.URL+url, nil, &e); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", url, code)
		}
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/deadbeef/answer",
		AnswerRequest{Answer: "yes"}, &e); code != http.StatusNotFound {
		t.Errorf("answer to bad session: status %d, want 404", code)
	}

	// Malformed answers on a real session.
	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "maybe"}, &e); code != http.StatusBadRequest {
		t.Errorf("invalid answer: status %d", code)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+q.SessionID+"/answer",
		strings.NewReader(`{"answer": "yes", "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}
}

// TestAnswerQuestionMismatch pins the retry guard: an answer naming a
// question other than the pending one is rejected with 409 and does not
// advance the session, so a duplicated POST (applied once, response lost)
// cannot land on the next question.
func TestAnswerQuestionMismatch(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	first := q
	// First answer, correlated: accepted.
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "no", Entity: first.Entity}, &q); code != http.StatusOK {
		t.Fatalf("correlated answer: status %d", code)
	}
	if q.Entity == first.Entity {
		t.Fatal("question did not advance")
	}
	// Retry of the same answer: the named question is no longer pending.
	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+q.SessionID+"/answer",
		AnswerRequest{Answer: "no", Entity: first.Entity}, &e); code != http.StatusConflict {
		t.Errorf("stale retry: status %d, want 409", code)
	}
	// The rejected retry must not have consumed the pending question.
	var q2 QuestionResponse
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &q2); code != http.StatusOK {
		t.Fatalf("question: status %d", code)
	}
	if q2.Entity != q.Entity || q2.Questions != q.Questions {
		t.Errorf("rejected retry advanced the session: %+v vs %+v", q2, q)
	}
}

func TestAnswerAfterDone(t *testing.T) {
	_, ts, c := newTestServer(t)
	oracle, err := c.TargetOracle("S2")
	if err != nil {
		t.Fatal(err)
	}
	res := resolve(t, ts.URL, CreateSessionRequest{}, oracle)
	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+res.SessionID+"/answer",
		AnswerRequest{Answer: "yes"}, &e); code != http.StatusConflict {
		t.Errorf("answer after done: status %d, want 409", code)
	}
}

func TestDeleteSession(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/"+q.SessionID, nil, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d", code)
	}
	var e ErrorResponse
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &e); code != http.StatusNotFound {
		t.Errorf("question after delete: status %d, want 404", code)
	}
}

// TestSessionExpiry injects a fake clock into the store and checks that an
// idle session dies after its TTL while a touched session slides forward.
func TestSessionExpiry(t *testing.T) {
	srv, ts, _ := newTestServer(t, WithTTL(time.Minute))
	now := time.Now()
	srv.store.mu.Lock()
	srv.store.now = func() time.Time { return now }
	srv.store.mu.Unlock()

	var idle, active QuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &idle); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &active); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	// 40s later both are alive; touching `active` slides its deadline.
	now = now.Add(40 * time.Second)
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+active.SessionID+"/question", nil, &active); code != http.StatusOK {
		t.Fatalf("touch active: status %d", code)
	}

	// At t+90s: `idle` is 90s idle (past the 60s TTL, gone), `active` is
	// 50s idle since its touch (still alive).
	now = now.Add(50 * time.Second)
	var e ErrorResponse
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+idle.SessionID+"/question", nil, &e); code != http.StatusNotFound {
		t.Errorf("idle session after TTL: status %d, want 404", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+active.SessionID+"/question", nil, nil); code != http.StatusOK {
		t.Errorf("touched session within TTL: status %d, want 200", code)
	}
	if n := srv.SessionCount(); n != 1 {
		t.Errorf("SessionCount = %d, want 1", n)
	}
}

func TestStoreFull(t *testing.T) {
	_, ts, _ := newTestServer(t, WithMaxSessions(2))
	var q QuestionResponse
	for i := 0; i < 2; i++ {
		if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
	}
	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &e); code != http.StatusServiceUnavailable {
		t.Errorf("create beyond capacity: status %d, want 503", code)
	}
	// Deleting one admits one more.
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/"+q.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Errorf("create after delete: status %d", code)
	}
}

// TestConcurrentHTTPSessions resolves many targets at once through the
// full HTTP stack over one shared server — the serving acceptance criterion
// under -race.
func TestConcurrentHTTPSessions(t *testing.T) {
	_, ts, c := newTestServer(t)
	names := []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7"}
	const clients = 24
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
			create := CreateSessionRequest{}
			if g%3 == 1 {
				create.Tree = true
			}
			res := resolve(t, ts.URL, create, oracle)
			if res.Target != target {
				t.Errorf("client %d: discovered %q, want %q", g, res.Target, target)
			}
		}(g)
	}
	wg.Wait()
}

func TestRegisterValidation(t *testing.T) {
	c, err := setdiscovery.NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	other, err := setdiscovery.NewCollection(map[string][]string{"A": {"x"}, "B": {"y"}})
	if err != nil {
		t.Fatal(err)
	}
	otherTree, err := other.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	if err := srv.Register("paper", c); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("paper", c); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := srv.Register("", c); err == nil {
		t.Error("empty name accepted")
	}
	if err := srv.RegisterTree("nope", otherTree); err == nil {
		t.Error("tree for unregistered collection accepted")
	}
	if err := srv.RegisterTree("paper", otherTree); err == nil {
		t.Error("tree built over a different collection accepted")
	}
}

// TestCurlExample keeps the README's curl walkthrough honest: default
// create body, raw string answers, result shape.
func TestCurlExample(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/collections/paper/sessions", "application/json",
		strings.NewReader(`{"initial":["b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var q QuestionResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || q.Entity == "" || q.SessionID == "" {
		t.Fatalf("create: status %d, question %+v", resp.StatusCode, q)
	}
}
