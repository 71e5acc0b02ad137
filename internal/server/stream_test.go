package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"setdiscovery"
	"setdiscovery/internal/wireproto"
)

const streamTestTimeout = 5 * time.Second

// newStreamServer starts the paper-collection server on both planes and
// returns the HTTP base URL and a connected stream client.
func newStreamServer(t *testing.T, opts ...Option) (*Server, string, *wireproto.Client) {
	t.Helper()
	srv, ts, _ := newTestServer(t, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)
	c, err := wireproto.Dial(ln.Addr().String(), streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, ts.URL, c
}

// resolveStream drives one stream session to completion against the
// paper-sets target, returning the asked entity sequence and the result.
func resolveStream(t *testing.T, s *wireproto.Stream, q *wireproto.Question, target map[string]bool) ([]string, *wireproto.Result) {
	t.Helper()
	var asked []string
	for i := 0; !q.Done; i++ {
		if i > 100 {
			t.Fatal("session did not converge")
		}
		mq := q.Members[0]
		var err error
		switch {
		case mq.Entity != "":
			asked = append(asked, "e:"+mq.Entity)
			ans := "no"
			if target[mq.Entity] {
				ans = "yes"
			}
			q, err = s.Answer(&wireproto.Answer{Answer: ans, Entity: mq.Entity}, streamTestTimeout)
		case mq.Confirm != "":
			asked = append(asked, "c:"+mq.Confirm)
			q, err = s.Answer(&wireproto.Answer{Answer: "yes", Confirm: mq.Confirm}, streamTestTimeout)
		default:
			t.Fatalf("question with neither entity nor confirm: %#v", mq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result(streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return asked, res
}

func TestStreamSessionResolves(t *testing.T) {
	_, _, c := newStreamServer(t)
	s := c.OpenStream()
	defer s.Close()

	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID == "" || q.Done || len(q.Members) != 1 {
		t.Fatalf("unexpected first question: %#v", q)
	}
	target := map[string]bool{"a": true, "d": true, "e": true} // S2
	_, res := resolveStream(t, s, q, target)
	if !res.Done || res.Members[0].Target != "S2" {
		t.Fatalf("expected S2, got %#v", res)
	}
	if res.Members[0].Questions == 0 {
		t.Fatal("result reports zero questions")
	}
}

// TestStreamMatchesHTTP pins cross-plane equivalence at the engine: the
// same collection resolves the same target over /v1 JSON and over the
// stream with an identical question sequence and identical result fields,
// and a session created on one plane is visible on the other (shared
// store).
func TestStreamMatchesHTTP(t *testing.T) {
	srv, base, c := newStreamServer(t)
	target := map[string]bool{"a": true, "b": true, "g": true} // S7

	// JSON plane twin.
	var jq QuestionResponse
	if code := do(t, http.MethodPost, base+"/v1/collections/paper/sessions", nil, &jq); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var jAsked []string
	for i := 0; !jq.Done; i++ {
		if i > 100 {
			t.Fatal("JSON session did not converge")
		}
		req := AnswerRequest{Entity: jq.Entity, Confirm: jq.Confirm}
		switch {
		case jq.Entity != "":
			jAsked = append(jAsked, "e:"+jq.Entity)
			req.Answer = "no"
			if target[jq.Entity] {
				req.Answer = "yes"
			}
		case jq.Confirm != "":
			jAsked = append(jAsked, "c:"+jq.Confirm)
			req.Answer = "yes"
		}
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+jq.SessionID+"/answer", req, &jq); code != http.StatusOK {
			t.Fatalf("answer: status %d", code)
		}
	}
	var jres ResultResponse
	if code := do(t, http.MethodGet, base+"/v1/sessions/"+jq.SessionID+"/result", nil, &jres); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}

	// Stream plane twin.
	s := c.OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	sAsked, sres := resolveStream(t, s, q, target)

	if fmt.Sprint(jAsked) != fmt.Sprint(sAsked) {
		t.Fatalf("question sequences diverge:\n json  %v\n frame %v", jAsked, sAsked)
	}
	m := sres.Members[0]
	if m.Target != jres.Target || m.Questions != jres.Questions ||
		m.Interactions != jres.Interactions || m.Backtracks != jres.Backtracks {
		t.Fatalf("results diverge:\n json  %#v\n frame %#v", jres.ResultBody, m)
	}

	// Shared store: the stream-created session answers over HTTP too.
	var hq QuestionResponse
	if code := do(t, http.MethodGet, base+"/v1/sessions/"+q.ID+"/question", nil, &hq); code != http.StatusOK {
		t.Fatalf("cross-plane question: status %d", code)
	}
	if !hq.Done {
		t.Fatalf("stream-resolved session not done over HTTP: %#v", hq)
	}
	if srv.SessionCount() != 2 {
		t.Fatalf("expected 2 sessions in the shared store, got %d", srv.SessionCount())
	}
}

func TestStreamBatch(t *testing.T) {
	_, _, c := newStreamServer(t)
	s := c.OpenStream()
	defer s.Close()

	q, err := s.Create(&wireproto.Create{
		Collection: "paper",
		Batch:      true,
		Seeds:      [][]string{nil, nil},
	}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Members) != 2 {
		t.Fatalf("expected 2 members, got %#v", q)
	}
	targets := []map[string]bool{
		{"a": true, "d": true, "e": true},            // S2
		{"a": true, "b": true, "j": true, "k": true}, // S6
	}
	for round := 0; !q.Done; round++ {
		if round > 100 {
			t.Fatal("batch did not converge")
		}
		var ba wireproto.BatchAnswer
		for _, mq := range q.Members {
			if mq.Done {
				continue
			}
			ans := wireproto.MemberAnswer{Member: mq.Member, Entity: mq.Entity, Confirm: mq.Confirm}
			switch {
			case mq.Entity != "":
				ans.Answer = "no"
				if targets[mq.Member][mq.Entity] {
					ans.Answer = "yes"
				}
			case mq.Confirm != "":
				ans.Answer = "yes"
			}
			ba.Answers = append(ba.Answers, ans)
		}
		if q, err = s.AnswerBatch(&ba, streamTestTimeout); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result(streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 || res.Members[0].Target != "S2" || res.Members[1].Target != "S6" {
		t.Fatalf("unexpected batch result: %#v", res)
	}

	// Out-of-range member rejects the whole round, mirroring HTTP 400.
	s2 := c.OpenStream()
	defer s2.Close()
	q2, err := s2.Create(&wireproto.Create{Collection: "paper", Batch: true, Seeds: [][]string{nil}}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s2.AnswerBatch(&wireproto.BatchAnswer{Answers: []wireproto.MemberAnswer{
		{Member: 5, Answer: "yes", Entity: q2.Members[0].Entity},
	}}, streamTestTimeout)
	var re *wireproto.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
		t.Fatalf("got %v, want 400 RemoteError", err)
	}
}

func TestStreamAttachAndState(t *testing.T) {
	_, _, c := newStreamServer(t)
	s := c.OpenStream()
	defer s.Close()

	q, err := s.Create(&wireproto.Create{Collection: "paper", WantState: true}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.State) == 0 {
		t.Fatal("WantState create returned no state")
	}

	// A second stream attaches to the same session and continues it.
	s2 := c.OpenStream()
	defer s2.Close()
	q2, err := s2.Attach(q.ID, true, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if q2.ID != q.ID || q2.Members[0].Entity != q.Members[0].Entity {
		t.Fatalf("attach diverges from create: %#v vs %#v", q2, q)
	}
	if len(q2.State) == 0 {
		t.Fatal("WantState attach returned no state")
	}

	// Attach to a nonsense ID is a 404.
	s3 := c.OpenStream()
	defer s3.Close()
	_, err = s3.Attach("nope", false, streamTestTimeout)
	var re *wireproto.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusNotFound {
		t.Fatalf("got %v, want 404 RemoteError", err)
	}
}

// TestStreamErrorStatuses pins the stream plane's failure answers and,
// for every request the JSON plane can also express, that both planes
// answer it with the same status and the same error text — they run one
// request core.
func TestStreamErrorStatuses(t *testing.T) {
	_, base, c := newStreamServer(t, WithMaxBatchMembers(2))

	// samePlanes requires the stream failure err to carry status want, and
	// the JSON plane's answer to the same request to match it.
	samePlanes := func(name string, err error, want int, method, url string, body any) {
		t.Helper()
		var re *wireproto.RemoteError
		if !errors.As(err, &re) || re.Status != want {
			t.Fatalf("%s: stream got %v, want %d", name, err, want)
		}
		var e ErrorResponse
		if code := do(t, method, url, body, &e); code != re.Status || e.Error != re.Msg {
			t.Fatalf("%s: JSON answered %d %q, stream %d %q", name, code, e.Error, re.Status, re.Msg)
		}
	}
	var re *wireproto.RemoteError

	// Unknown collection → 404.
	s := c.OpenStream()
	_, err := s.Create(&wireproto.Create{Collection: "nope"}, streamTestTimeout)
	samePlanes("unknown collection", err, http.StatusNotFound, http.MethodPost, base+"/v1/collections/nope/sessions", nil)
	s.Close()

	// A tree session runs under the options the tree was built with, so a
	// tree create that sets any session config field → 400.
	for _, cfg := range []SessionConfig{
		{Strategy: "bogus"}, {MaxQuestions: 1}, {Backtrack: true}, {BatchSize: 3}, {Metric: "h"},
	} {
		s = c.OpenStream()
		_, err = s.Create(&wireproto.Create{Collection: "paper", Tree: true, Config: wireproto.SessionConfig{
			Strategy: cfg.Strategy, MaxQuestions: cfg.MaxQuestions, Backtrack: cfg.Backtrack,
			BatchSize: cfg.BatchSize, Metric: cfg.Metric,
		}}, streamTestTimeout)
		samePlanes(fmt.Sprintf("tree session with %+v", cfg), err, http.StatusBadRequest, http.MethodPost,
			base+"/v1/collections/paper/sessions", CreateSessionRequest{Tree: true, SessionConfig: cfg})
		s.Close()
	}

	// Answer on an unbound channel → 404 (no JSON equivalent).
	s = c.OpenStream()
	_, err = s.Answer(&wireproto.Answer{Answer: "yes"}, streamTestTimeout)
	if !errors.As(err, &re) || re.Status != http.StatusNotFound {
		t.Fatalf("unbound answer: got %v, want 404", err)
	}
	s.Close()

	// Stale question assertion → 409; malformed answer → 400. The JSON twin
	// is a fresh session over the same collection, so it pends the same
	// question and the texts match.
	s = c.OpenStream()
	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var jq QuestionResponse
	if code := do(t, http.MethodPost, base+"/v1/collections/paper/sessions", nil, &jq); code != http.StatusCreated {
		t.Fatalf("JSON create: status %d", code)
	}
	jAnswer := base + "/v1/sessions/" + jq.SessionID + "/answer"
	_, err = s.Answer(&wireproto.Answer{Answer: "yes", Entity: "not-the-question"}, streamTestTimeout)
	samePlanes("stale assertion", err, http.StatusConflict, http.MethodPost, jAnswer,
		AnswerRequest{Answer: "yes", Entity: "not-the-question"})
	_, err = s.Answer(&wireproto.Answer{Answer: "maybe", Entity: q.Members[0].Entity}, streamTestTimeout)
	samePlanes("malformed answer", err, http.StatusBadRequest, http.MethodPost, jAnswer,
		AnswerRequest{Answer: "maybe", Entity: jq.Entity})
	// A batch-answer frame on a session channel → 404.
	_, err = s.AnswerBatch(&wireproto.BatchAnswer{Answers: []wireproto.MemberAnswer{{Answer: "yes"}}}, streamTestTimeout)
	samePlanes("batch answer on a session", err, http.StatusNotFound, http.MethodPost,
		base+"/v1/batches/"+jq.SessionID+"/answers", BatchAnswerRequest{Answers: []MemberAnswerRequest{{Answer: "yes"}}})
	s.Close()

	// A batch with no seeds, or more than WithMaxBatchMembers → 400.
	s = c.OpenStream()
	_, err = s.Create(&wireproto.Create{Collection: "paper", Batch: true}, streamTestTimeout)
	samePlanes("batch without seeds", err, http.StatusBadRequest, http.MethodPost,
		base+"/v1/collections/paper/batches", CreateBatchRequest{})
	_, err = s.Create(&wireproto.Create{Collection: "paper", Batch: true, Seeds: [][]string{nil, nil, nil}}, streamTestTimeout)
	samePlanes("batch over the member limit", err, http.StatusBadRequest, http.MethodPost,
		base+"/v1/collections/paper/batches", CreateBatchRequest{Seeds: []BatchSeed{{}, {}, {}}})
	s.Close()

	// A batch answer naming no member → 400; a session answer frame on a
	// batch channel → 404.
	s = c.OpenStream()
	if _, err := s.Create(&wireproto.Create{Collection: "paper", Batch: true, Seeds: [][]string{nil}}, streamTestTimeout); err != nil {
		t.Fatal(err)
	}
	var jb BatchQuestionResponse
	if code := do(t, http.MethodPost, base+"/v1/collections/paper/batches",
		CreateBatchRequest{Seeds: []BatchSeed{{}}}, &jb); code != http.StatusCreated {
		t.Fatalf("JSON batch create: status %d", code)
	}
	_, err = s.AnswerBatch(&wireproto.BatchAnswer{Answers: []wireproto.MemberAnswer{{Member: 5, Answer: "yes"}}}, streamTestTimeout)
	samePlanes("batch answer naming no member", err, http.StatusBadRequest, http.MethodPost,
		base+"/v1/batches/"+jb.BatchID+"/answers", BatchAnswerRequest{Answers: []MemberAnswerRequest{{Member: 5, Answer: "yes"}}})
	_, err = s.Answer(&wireproto.Answer{Answer: "yes"}, streamTestTimeout)
	samePlanes("session answer on a batch", err, http.StatusNotFound, http.MethodPost,
		base+"/v1/sessions/"+jb.BatchID+"/answer", AnswerRequest{Answer: "yes"})
	s.Close()

	// Store at capacity → 503.
	srv2, ts2, _ := newTestServer(t, WithMaxSessions(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv2.ServeStream(ln)
	c2, err := wireproto.Dial(ln.Addr().String(), streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sA := c2.OpenStream()
	if _, err := sA.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout); err != nil {
		t.Fatal(err)
	}
	sB := c2.OpenStream()
	_, err = sB.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	samePlanes("full store", err, http.StatusServiceUnavailable, http.MethodPost, ts2.URL+"/v1/collections/paper/sessions", nil)
}

// TestStreamTreeSession drives the prebuilt-tree walk over the stream.
func TestStreamTreeSession(t *testing.T) {
	_, _, c := newStreamServer(t)
	s := c.OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{Collection: "paper", Tree: true}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	target := map[string]bool{"a": true, "b": true, "c": true, "d": true} // S1
	_, res := resolveStream(t, s, q, target)
	if res.Members[0].Target != "S1" {
		t.Fatalf("expected S1, got %#v", res)
	}
	_ = setdiscovery.Yes // keep the import honest if helpers change
}

// TestStreamChannelMapBounded serves 256 sessions over one long-lived
// connection — the shape of a router's pooled link — each finished and then
// DELETEd over the JSON plane. Clients never tell the engine they are done
// with a channel, so the connection's channel map must shed the channels of
// gone resources on its own and stay under a fixed bound.
func TestStreamChannelMapBounded(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := make(chan *streamConn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if wireproto.ReadPreface(conn) != nil {
			return
		}
		sc := srv.newStreamConn(conn)
		conns <- sc
		sc.serve()
	}()
	c, err := wireproto.Dial(ln.Addr().String(), streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sc := <-conns

	target := map[string]bool{"a": true, "d": true, "e": true} // S2
	for i := 0; i < 256; i++ {
		s := c.OpenStream()
		q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if _, res := resolveStream(t, s, q, target); res.Members[0].Target != "S2" {
			t.Fatalf("session %d resolved %q, want S2", i, res.Members[0].Target)
		}
		s.Close()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+q.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sc.mu.Lock()
		n := len(sc.bound)
		sc.mu.Unlock()
		if n > boundSweepFloor {
			t.Fatalf("after %d finished and deleted sessions the connection binds %d channels, want at most %d",
				i+1, n, boundSweepFloor)
		}
	}
}
