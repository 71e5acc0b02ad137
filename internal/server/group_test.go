package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"setdiscovery/internal/wireproto"
)

// groupAnswer answers a set-valued question truthfully for a target set.
func groupAnswer(target map[string]bool, subset []string, sem string) string {
	switch sem {
	case "intersects":
		for _, s := range subset {
			if target[s] {
				return "yes"
			}
		}
		return "no"
	case "subset-of":
		for _, s := range subset {
			if !target[s] {
				return "no"
			}
		}
		return "yes"
	default:
		return "unknown"
	}
}

// resolveGroupJSON drives a JSON-plane group session to completion,
// returning the question trace and the result.
func resolveGroupJSON(t *testing.T, base string, create CreateSessionRequest, target map[string]bool) ([]string, ResultResponse) {
	t.Helper()
	var q QuestionResponse
	if code := do(t, http.MethodPost, base+"/v1/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create group session: status %d", code)
	}
	var asked []string
	for i := 0; !q.Done; i++ {
		if i > 100 {
			t.Fatal("group session did not converge")
		}
		req := AnswerRequest{Entity: q.Entity, Confirm: q.Confirm, Subset: q.Subset, Semantics: q.Semantics}
		switch {
		case len(q.Subset) > 0:
			asked = append(asked, fmt.Sprintf("s:%s:%v", q.Semantics, q.Subset))
			req.Answer = groupAnswer(target, q.Subset, q.Semantics)
		case q.Confirm != "":
			asked = append(asked, "c:"+q.Confirm)
			req.Answer = "yes"
		default:
			t.Fatalf("group question carries neither subset nor confirm: %#v", q)
		}
		var next QuestionResponse
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+q.SessionID+"/answer", req, &next); code != http.StatusOK {
			t.Fatalf("group answer: status %d", code)
		}
		next.SessionID = q.SessionID
		q = next
	}
	var res ResultResponse
	if code := do(t, http.MethodGet, base+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("group result: status %d", code)
	}
	return asked, res
}

// TestGroupSessionHTTP pins the JSON plane's group-session flow: set-valued
// questions carry subset and semantics, the assertion echo is accepted, and
// the session converges on the target.
func TestGroupSessionHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t)
	target := map[string]bool{"a": true, "d": true, "e": true} // S2
	asked, res := resolveGroupJSON(t, ts.URL,
		CreateSessionRequest{SessionConfig: SessionConfig{GroupStrategy: "halving"}}, target)
	if res.Target != "S2" {
		t.Fatalf("expected S2, got %#v", res)
	}
	if len(asked) == 0 || !strings.HasPrefix(asked[0], "s:") {
		t.Fatalf("expected subset questions, trace %v", asked)
	}
}

// TestGroupAnswerAssertionConflict pins the retry guard for subset
// questions: an answer naming a different subset than the pending question
// is rejected with 409 and does not advance the session.
func TestGroupAnswerAssertionConflict(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var q QuestionResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/collections/paper/sessions",
		CreateSessionRequest{SessionConfig: SessionConfig{GroupStrategy: "halving"}}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if len(q.Subset) == 0 {
		t.Fatalf("expected a subset question, got %#v", q)
	}
	wrong := AnswerRequest{Answer: "yes", Subset: []string{"not-the-question"}, Semantics: q.Semantics}
	var e ErrorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+q.SessionID+"/answer", wrong, &e); code != http.StatusConflict {
		t.Fatalf("mismatched subset assertion: status %d, want 409", code)
	}
	// A correct echo still lands.
	ok := AnswerRequest{Answer: "no", Subset: q.Subset, Semantics: q.Semantics}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+q.SessionID+"/answer", ok, nil); code != http.StatusOK {
		t.Fatalf("correct subset assertion: status %d", code)
	}
}

// TestGroupStreamMatchesHTTP pins cross-plane equivalence for group
// sessions: the same target resolves over /v1 JSON and over the stream
// plane with an identical set-valued question sequence and identical result
// fields — the byte-level twin of TestStreamMatchesHTTP.
func TestGroupStreamMatchesHTTP(t *testing.T) {
	_, base, c := newStreamServer(t)
	target := map[string]bool{"a": true, "b": true, "g": true} // S7

	jAsked, jres := resolveGroupJSON(t, base,
		CreateSessionRequest{SessionConfig: SessionConfig{GroupStrategy: "halving"}}, target)

	s := c.OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{
		Collection: "paper",
		Config:     wireproto.SessionConfig{GroupStrategy: "halving"},
	}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var sAsked []string
	for i := 0; !q.Done; i++ {
		if i > 100 {
			t.Fatal("stream group session did not converge")
		}
		mq := q.Members[0]
		var ans string
		switch {
		case len(mq.Subset) > 0:
			sAsked = append(sAsked, fmt.Sprintf("s:%s:%v", mq.Semantics, mq.Subset))
			ans = groupAnswer(target, mq.Subset, mq.Semantics)
		case mq.Confirm != "":
			sAsked = append(sAsked, "c:"+mq.Confirm)
			ans = "yes"
		default:
			t.Fatalf("stream group question with neither subset nor confirm: %#v", mq)
		}
		q, err = s.Answer(&wireproto.Answer{
			Answer: ans, Confirm: mq.Confirm, Subset: mq.Subset, Semantics: mq.Semantics,
		}, streamTestTimeout)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result(streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(jAsked) != fmt.Sprint(sAsked) {
		t.Fatalf("group question sequences diverge:\n json  %v\n frame %v", jAsked, sAsked)
	}
	m := res.Members[0]
	if m.Target != jres.Target || m.Questions != jres.Questions {
		t.Fatalf("group results diverge:\n json  %#v\n frame %#v", jres.ResultBody, m)
	}
}

// TestGroupBatchHTTP drives a two-member group batch over the JSON plane:
// subset questions per member, assertion echo, distinct targets.
func TestGroupBatchHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t)
	targets := []map[string]bool{
		{"a": true, "d": true, "e": true},            // S2
		{"a": true, "b": true, "j": true, "k": true}, // S6
	}
	var bq BatchQuestionResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/collections/paper/batches", CreateBatchRequest{
		Seeds:         []BatchSeed{{}, {}},
		SessionConfig: SessionConfig{GroupStrategy: "halving"},
	}, &bq); code != http.StatusCreated {
		t.Fatalf("create group batch: status %d", code)
	}
	for round := 0; !bq.Done; round++ {
		if round > 100 {
			t.Fatal("group batch did not converge")
		}
		var req BatchAnswerRequest
		for _, mq := range bq.Members {
			if mq.Done {
				continue
			}
			if len(mq.Subset) == 0 {
				t.Fatalf("member %d: expected a subset question, got %#v", mq.Member, mq)
			}
			req.Answers = append(req.Answers, MemberAnswerRequest{
				Member:    mq.Member,
				Answer:    groupAnswer(targets[mq.Member], mq.Subset, mq.Semantics),
				Subset:    mq.Subset,
				Semantics: mq.Semantics,
			})
		}
		var next BatchQuestionResponse
		if code := do(t, http.MethodPost, ts.URL+"/v1/batches/"+bq.BatchID+"/answers", req, &next); code != http.StatusOK {
			t.Fatalf("batch answers: status %d", code)
		}
		next.BatchID = bq.BatchID
		bq = next
	}
	var res BatchResultsResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/batches/"+bq.BatchID+"/results", nil, &res); code != http.StatusOK {
		t.Fatalf("batch results: status %d", code)
	}
	want := []string{"S2", "S6"}
	for i, m := range res.Members {
		if m.Target != want[i] {
			t.Fatalf("member %d: expected %s, got %#v", i, want[i], m)
		}
	}
}

// TestMetricsEndpoint pins the engine's Prometheus exposition: content
// type, the key families, and that store occupancy is reflected.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// One live session so the gauges are non-trivial.
	var q QuestionResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE setdiscovery_resources gauge",
		`setdiscovery_resources{kind="session"} 1`,
		`setdiscovery_resources{kind="batch"} 0`,
		"# TYPE setdiscovery_selection_cache_hits_total counter",
		`setdiscovery_selection_cache_hits_total{collection="paper"}`,
		"setdiscovery_live_discoveries 1",
		"setdiscovery_max_sessions",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, text)
		}
	}
	// One source behind both endpoints: every store gauge and per-collection
	// sample equals its /v1/stats field, and nothing but uptime is left over.
	var stats StatsResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	want := map[string]float64{
		`setdiscovery_resources{kind="session"}`: float64(stats.Sessions),
		`setdiscovery_resources{kind="batch"}`:   float64(stats.Batches),
		"setdiscovery_live_discoveries":          float64(stats.LiveDiscoveries),
		"setdiscovery_max_sessions":              float64(stats.MaxSessions),
		"setdiscovery_session_ttl_seconds":       float64(stats.TTLSeconds),
		"setdiscovery_sliding_ttl":               BoolGauge(stats.SlidingTTL),
	}
	for _, c := range stats.Collections {
		label := fmt.Sprintf("{collection=%q}", c.Name)
		want["setdiscovery_collection_sets"+label] = float64(c.Sets)
		want["setdiscovery_collection_entities"+label] = float64(c.Entities)
		want["setdiscovery_collection_tree"+label] = BoolGauge(c.Tree)
		want["setdiscovery_selection_cache_hits_total"+label] = float64(c.Cache.Hits)
		want["setdiscovery_selection_cache_misses_total"+label] = float64(c.Cache.Misses)
		want["setdiscovery_selection_cache_evictions_total"+label] = float64(c.Cache.Evictions)
		want["setdiscovery_selection_cache_coalesced_total"+label] = float64(c.Cache.Coalesced)
		want["setdiscovery_selection_cache_entries"+label] = float64(c.Cache.Entries)
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name, value, _ := strings.Cut(line, " ")
		if strings.HasPrefix(line, "#") || name == "setdiscovery_uptime_seconds" {
			continue
		}
		v, ok := want[name]
		if !ok {
			t.Errorf("metrics sample %q has no /v1/stats field", line)
			continue
		}
		if got := fmt.Sprintf("%g", v); got != value {
			t.Errorf("%s = %s, /v1/stats says %s", name, value, got)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("metrics body has no sample %s", name)
	}
	// The legacy unversioned alias serves the same exposition.
	lresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("legacy metrics: status %d", lresp.StatusCode)
	}
}
