package server

import (
	"net/http"
	"testing"
	"time"

	"setdiscovery"
)

// answerFor renders an oracle's reply to a member question as the wire
// answer string.
func answerFor(t *testing.T, o setdiscovery.Oracle, q MemberQuestion) string {
	t.Helper()
	if q.Confirm != "" {
		if conf, ok := o.(setdiscovery.Confirmer); ok && conf.Confirm(q.Confirm) {
			return "yes"
		}
		return "no"
	}
	switch o.Answer(q.Entity) {
	case setdiscovery.Yes:
		return "yes"
	case setdiscovery.No:
		return "no"
	default:
		return "unknown"
	}
}

// resolveBatch drives a created batch round by round: every live member's
// question is answered from its oracle in one POST per round.
func resolveBatch(t *testing.T, baseURL string, snap BatchQuestionResponse, oracles []setdiscovery.Oracle) BatchResultsResponse {
	t.Helper()
	for rounds := 0; !snap.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("batch did not converge")
		}
		var req BatchAnswerRequest
		for _, mq := range snap.Members {
			if mq.Done {
				continue
			}
			req.Answers = append(req.Answers, MemberAnswerRequest{
				Member:  mq.Member,
				Answer:  answerFor(t, oracles[mq.Member], mq),
				Entity:  mq.Entity,
				Confirm: mq.Confirm,
			})
		}
		if len(req.Answers) == 0 {
			t.Fatal("batch not done but no member has a question")
		}
		var next BatchQuestionResponse
		if code := do(t, "POST", baseURL+"/v1/batches/"+snap.BatchID+"/answers", req, &next); code != http.StatusOK {
			t.Fatalf("batch answers: status %d", code)
		}
		for _, mq := range next.Members {
			if mq.Error != "" {
				t.Fatalf("member %d rejected: %s", mq.Member, mq.Error)
			}
		}
		snap = next
	}
	var res BatchResultsResponse
	if code := do(t, "GET", baseURL+"/v1/batches/"+snap.BatchID+"/results", nil, &res); code != http.StatusOK {
		t.Fatalf("batch results: status %d", code)
	}
	return res
}

// TestEndToEndBatch is the serving-layer acceptance flow for batches: one
// batch with a member per paper set, driven by one POST per round, resolves
// every member to its own target while computing strictly fewer selections
// than the members would independently.
func TestEndToEndBatch(t *testing.T) {
	srv, ts, c := newTestServer(t)
	names := c.Names()
	req := CreateBatchRequest{Seeds: make([]BatchSeed, len(names))}
	var snap BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches", req, &snap); code != http.StatusCreated {
		t.Fatalf("create batch: status %d", code)
	}
	if snap.BatchID == "" || len(snap.Members) != len(names) {
		t.Fatalf("create batch snapshot: %+v", snap)
	}
	if srv.BatchCount() != 1 {
		t.Fatalf("BatchCount = %d, want 1", srv.BatchCount())
	}
	oracles := make([]setdiscovery.Oracle, len(names))
	for i, name := range names {
		o, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	res := resolveBatch(t, ts.URL, snap, oracles)
	if !res.Done {
		t.Fatal("results not done")
	}
	for i, mr := range res.Members {
		if mr.Target != names[i] {
			t.Errorf("member %d resolved %q, want %q", i, mr.Target, names[i])
		}
		if mr.Error != "" {
			t.Errorf("member %d error: %s", i, mr.Error)
		}
	}
	if res.SelectionsShared == 0 {
		t.Errorf("no selections shared across the batch: %+v", res)
	}

	if code := do(t, "DELETE", ts.URL+"/v1/batches/"+snap.BatchID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete batch: status %d", code)
	}
	var e ErrorResponse
	if code := do(t, "GET", ts.URL+"/v1/batches/"+snap.BatchID+"/questions", nil, &e); code != http.StatusNotFound {
		t.Fatalf("deleted batch still answers: status %d", code)
	}
}

// TestBatchAnswerMemberErrors pins the partial-failure contract of the
// answers endpoint: a stale question assertion or an invalid answer fails
// only that member's reply (reported in its snapshot row) while the rest of
// the round applies; an out-of-range member rejects the POST before any
// state changes.
func TestBatchAnswerMemberErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var snap BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 2)}, &snap); code != http.StatusCreated {
		t.Fatalf("create batch: status %d", code)
	}

	// Out-of-range member: whole POST rejected, no member advanced.
	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/batches/"+snap.BatchID+"/answers",
		BatchAnswerRequest{Answers: []MemberAnswerRequest{{Member: 9, Answer: "yes"}}}, &e); code != http.StatusBadRequest {
		t.Fatalf("out-of-range member: status %d", code)
	}

	// One good reply, one stale assertion, one invalid answer: the good
	// reply advances its member, the others surface as member errors.
	req := BatchAnswerRequest{Answers: []MemberAnswerRequest{
		{Member: 0, Answer: "yes", Entity: snap.Members[0].Entity},
		{Member: 1, Answer: "yes", Entity: "definitely-not-the-question"},
	}}
	var next BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/batches/"+snap.BatchID+"/answers", req, &next); code != http.StatusOK {
		t.Fatalf("answers: status %d", code)
	}
	if next.Members[0].Error != "" || next.Members[0].Questions != 1 {
		t.Fatalf("member 0 should have advanced cleanly: %+v", next.Members[0])
	}
	if next.Members[1].Error == "" || next.Members[1].Questions != 0 {
		t.Fatalf("member 1 should have been rejected without advancing: %+v", next.Members[1])
	}

	var bad BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/batches/"+snap.BatchID+"/answers",
		BatchAnswerRequest{Answers: []MemberAnswerRequest{{Member: 1, Answer: "sideways"}}}, &bad); code != http.StatusOK {
		t.Fatalf("invalid answer: status %d", code)
	}
	if bad.Members[1].Error == "" {
		t.Fatal("invalid answer not reported on the member")
	}

	// Unknown entity in a seed and empty/oversized batches are 400s.
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: []BatchSeed{{Initial: []string{"zzz"}}}}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown seed entity: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/nope/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 1)}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown collection: status %d", code)
	}
	_, ts2, _ := newTestServer(t, WithMaxBatchMembers(4))
	if code := do(t, "POST", ts2.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 5)}, &e); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", code)
	}
}

// TestBatchWithBacktrackingOverHTTP drives a lying oracle through the
// batch endpoints with backtracking enabled: members hit the confirmation
// question, reject it, and recover — all through shared-selection rounds.
func TestBatchWithBacktrackingOverHTTP(t *testing.T) {
	_, ts, c := newTestServer(t)
	targets := []string{"S1", "S4", "S7"}
	req := CreateBatchRequest{
		Seeds:         make([]BatchSeed, len(targets)),
		SessionConfig: SessionConfig{Backtrack: true},
	}
	var snap BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches", req, &snap); code != http.StatusCreated {
		t.Fatalf("create batch: status %d", code)
	}
	oracles := make([]setdiscovery.Oracle, len(targets))
	for i, name := range targets {
		inner, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = &lieFirstOracle{inner: inner}
	}
	res := resolveBatch(t, ts.URL, snap, oracles)
	for i, mr := range res.Members {
		if mr.Target != targets[i] {
			t.Errorf("member %d recovered %q, want %q (%+v)", i, mr.Target, targets[i], mr)
		}
		if mr.Backtracks == 0 {
			t.Errorf("member %d: no backtracks despite a lying answer", i)
		}
	}
}

// TestBatchMembersCountAgainstSessionBudget pins the capacity contract:
// -max-sessions is a budget of live discoveries, so a batch weighs its
// member count and a batch that cannot fit is rejected with 503.
func TestBatchMembersCountAgainstSessionBudget(t *testing.T) {
	srv, ts, _ := newTestServer(t, WithMaxSessions(5))
	var snap BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 4)}, &snap); code != http.StatusCreated {
		t.Fatalf("batch of 4 into budget 5: status %d", code)
	}
	// 4 of 5 used: one single session still fits...
	var q QuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{}, &q); code != http.StatusCreated {
		t.Fatalf("session into remaining budget: status %d", code)
	}
	// ...and nothing more does, batch or session.
	var e ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 1)}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("batch over budget: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("session over budget: status %d", code)
	}
	if s, b := srv.SessionCount(), srv.BatchCount(); s != 1 || b != 1 {
		t.Fatalf("SessionCount=%d BatchCount=%d, want 1 and 1", s, b)
	}
	// Deleting the batch frees its members' budget.
	if code := do(t, "DELETE", ts.URL+"/v1/batches/"+snap.BatchID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete batch: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 4)}, &snap); code != http.StatusCreated {
		t.Fatalf("batch after freeing budget: status %d", code)
	}
	// ID namespaces are kind-checked: a batch ID is 404 on session
	// endpoints, and deleting it through the session endpoint is a no-op.
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/"+snap.BatchID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("cross-kind delete: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/batches/"+snap.BatchID+"/questions", nil, &snap); code != http.StatusOK {
		t.Fatalf("batch deleted through session endpoint: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/sessions/"+snap.BatchID+"/question", nil, &e); code != http.StatusNotFound {
		t.Fatalf("batch ID on session endpoint: status %d", code)
	}
}

// TestCrossKindDeleteDoesNotRefreshTTL: a wrong-endpoint DELETE must not
// slide the entry's expiry — otherwise retried misdirected deletes could
// pin a dead batch (and its member weight) in the store forever.
func TestCrossKindDeleteDoesNotRefreshTTL(t *testing.T) {
	srv, ts, _ := newTestServer(t, WithTTL(time.Minute))
	clock := time.Now()
	srv.store.now = func() time.Time { return clock }
	var snap BatchQuestionResponse
	if code := do(t, "POST", ts.URL+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: make([]BatchSeed, 2)}, &snap); code != http.StatusCreated {
		t.Fatalf("create batch: status %d", code)
	}
	// 40s in: a misdirected DELETE (session endpoint, batch ID) is a no-op
	// and must not refresh the 60s TTL.
	clock = clock.Add(40 * time.Second)
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/"+snap.BatchID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("cross-kind delete: status %d", code)
	}
	// 80s after creation the batch has expired, proving the TTL was not slid.
	clock = clock.Add(40 * time.Second)
	var e ErrorResponse
	if code := do(t, "GET", ts.URL+"/v1/batches/"+snap.BatchID+"/questions", nil, &e); code != http.StatusNotFound {
		t.Fatalf("batch survived past its TTL after a cross-kind delete: status %d", code)
	}
	if srv.BatchCount() != 0 {
		t.Fatalf("BatchCount = %d, want 0", srv.BatchCount())
	}
}
