package router

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"setdiscovery/internal/server"
	"setdiscovery/internal/wireproto"
)

// groupAnswerFor answers a set-valued question truthfully for a target set.
func groupAnswerFor(target map[string]bool, subset []string, sem string) string {
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

// driveGroupJSON resolves a group session over the router's JSON plane,
// returning the question trace ("s:<sem>:<members>" tokens) and the result.
func driveGroupJSON(t *testing.T, front string, target map[string]bool) ([]string, server.ResultResponse) {
	t.Helper()
	create := server.CreateSessionRequest{
		SessionConfig: server.SessionConfig{GroupStrategy: "halving"},
	}
	var q server.QuestionResponse
	if code := do(t, http.MethodPost, front+"/v1/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create group session: status %d", code)
	}
	var asked []string
	for i := 0; !q.Done; i++ {
		if i > 100 {
			t.Fatal("group session did not converge")
		}
		if len(q.Subset) == 0 {
			t.Fatalf("expected a subset question, got %#v", q)
		}
		asked = append(asked, fmt.Sprintf("s:%s:%v", q.Semantics, q.Subset))
		req := server.AnswerRequest{
			Answer:    groupAnswerFor(target, q.Subset, q.Semantics),
			Subset:    q.Subset,
			Semantics: q.Semantics,
		}
		var next server.QuestionResponse
		if code := do(t, http.MethodPost, front+"/v1/sessions/"+q.SessionID+"/answer", req, &next); code != http.StatusOK {
			t.Fatalf("group answer: status %d", code)
		}
		next.SessionID = q.SessionID
		q = next
	}
	var res server.ResultResponse
	if code := do(t, http.MethodGet, front+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("group result: status %d", code)
	}
	return asked, res
}

// TestChaosGroupSessionResurrect is the group-testing acceptance scenario
// end to end: a group (set-valued question) session is created over HTTP
// through the router, its owner is killed abruptly mid-discovery, the
// health loop resurrects it on the survivor from the piggybacked v3
// snapshot, and the session is finished over the binary stream plane —
// completing with exactly the question sequence and result of an
// undisturbed twin. The run is also the end-to-end pin for the router's
// /v1/metrics counters: it must report the resurrection and the proxied
// round-trip latency window.
func TestChaosGroupSessionResurrect(t *testing.T) {
	f := newStreamFleet(t, []string{"a", "b"}, WithSnapshotEvery(1))
	target := map[string]bool{"a": true, "b": true, "c": true, "d": true, "f": true} // S3

	// Undisturbed twin, fully over HTTP through the router.
	wantAsked, wantRes := driveGroupJSON(t, f.front, target)
	if len(wantAsked) < 2 {
		t.Fatalf("want a multi-question group discovery, got %v", wantAsked)
	}

	// The session under test: created over HTTP, one answer applied.
	var q server.QuestionResponse
	if code := do(t, http.MethodPost, f.front+"/v1/collections/paper/sessions", server.CreateSessionRequest{
		SessionConfig: server.SessionConfig{GroupStrategy: "halving"},
	}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id := q.SessionID
	var asked []string
	asked = append(asked, fmt.Sprintf("s:%s:%v", q.Semantics, q.Subset))
	req := server.AnswerRequest{
		Answer:    groupAnswerFor(target, q.Subset, q.Semantics),
		Subset:    q.Subset,
		Semantics: q.Semantics,
	}
	var next server.QuestionResponse
	if code := do(t, http.MethodPost, f.front+"/v1/sessions/"+id+"/answer", req, &next); code != http.StatusOK {
		t.Fatalf("answer: status %d", code)
	}
	if next.Done {
		t.Fatal("group session finished before the kill — target too easy for the scenario")
	}

	// SIGKILL the owner: HTTP refused, stream connections reset.
	f.rt.mu.RLock()
	ownerName := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()
	f.engines[ownerName].kill()
	for i := 0; i < f.rt.health.FailThreshold; i++ {
		f.rt.CheckHealthNow(t.Context())
	}
	f.rt.mu.RLock()
	newOwner := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()
	if newOwner == ownerName {
		t.Fatalf("group session still owned by dead backend %s", ownerName)
	}

	// Finish over the stream plane: attach by ID through the router.
	c := f.dial(t)
	s := c.OpenStream()
	defer s.Close()
	sq, err := s.Attach(id, false, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	mq := sq.Members[0]
	if !reflect.DeepEqual(mq.Subset, next.Subset) || mq.Semantics != next.Semantics {
		t.Fatalf("resumed at {%s %v}, want the crash-point question {%s %v}",
			mq.Semantics, mq.Subset, next.Semantics, next.Subset)
	}
	for i := 0; !sq.Done; i++ {
		if i > 100 {
			t.Fatal("resurrected group session did not converge")
		}
		mq := sq.Members[0]
		if len(mq.Subset) == 0 {
			t.Fatalf("expected a subset question, got %#v", mq)
		}
		asked = append(asked, fmt.Sprintf("s:%s:%v", mq.Semantics, mq.Subset))
		sq, err = s.Answer(&wireproto.Answer{
			Answer:    groupAnswerFor(target, mq.Subset, mq.Semantics),
			Subset:    mq.Subset,
			Semantics: mq.Semantics,
		}, streamTestTimeout)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result(streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(asked, wantAsked) {
		t.Fatalf("group question sequence diverged across the kill:\n undisturbed %v\n resurrected %v", wantAsked, asked)
	}
	m := res.Members[0]
	if m.Target != wantRes.Target || m.Questions != wantRes.Questions || m.Error != wantRes.Error {
		t.Fatalf("results diverge across the kill:\n undisturbed %#v\n resurrected {%s %d %s}",
			wantRes.ResultBody, m.Target, m.Questions, m.Error)
	}
	if m.Target != "S3" {
		t.Fatalf("expected S3, got %q", m.Target)
	}

	// The router's exposition reflects what just happened.
	resp, err := http.Get(f.front + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"setdiscovery_router_resurrections_total",
		"setdiscovery_router_migrations_total",
		"setdiscovery_router_round_seconds_count",
		`quantile="0.99"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("router metrics missing %q:\n%s", want, text)
		}
	}
	// At least this session's resurrection was counted (the finished twin,
	// parked on the same dead owner, legitimately re-imports too).
	if strings.Contains(text, "setdiscovery_router_resurrections_total 0\n") {
		t.Fatalf("resurrection not counted:\n%s", text)
	}
	// The journal counters: at cadence 1 every create and answer round is
	// captured, so nothing was journaled and nothing replayed.
	for _, want := range []string{
		fmt.Sprintf("setdiscovery_router_snapshot_captures_total %d\n", f.rt.metrics.captures.Load()),
		"setdiscovery_router_replayed_answers_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("router metrics missing %q:\n%s", want, text)
		}
	}
	if got, want := f.rt.metrics.captures.Load(), int64(2+len(wantAsked)+len(asked)); got != want {
		t.Fatalf("%d snapshot captures, want %d: two creates and every answer round", got, want)
	}
}
