package router

import (
	"net/http"
	"reflect"
	"testing"

	"setdiscovery/internal/server"
	"setdiscovery/internal/wireproto"
)

// driveJSON resolves one session over the router's /v1 JSON plane,
// returning the question sequence in the same token form as driveStream.
func driveJSON(t *testing.T, front string, target map[string]bool) ([]string, server.ResultResponse) {
	t.Helper()
	var q server.QuestionResponse
	if code := do(t, http.MethodPost, front+"/v1/collections/paper/sessions", nil, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var asked []string
	for i := 0; !q.Done; i++ {
		if i > 100 {
			t.Fatal("JSON session did not converge")
		}
		req := server.AnswerRequest{Entity: q.Entity, Confirm: q.Confirm}
		switch {
		case q.Entity != "":
			asked = append(asked, "e:"+q.Entity)
			req.Answer = "no"
			if target[q.Entity] {
				req.Answer = "yes"
			}
		case q.Confirm != "":
			asked = append(asked, "c:"+q.Confirm)
			req.Answer = "yes"
		}
		if code := do(t, http.MethodPost, front+"/v1/sessions/"+q.SessionID+"/answer", req, &q); code != http.StatusOK {
			t.Fatalf("answer: status %d", code)
		}
	}
	var res server.ResultResponse
	if code := do(t, http.MethodGet, front+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	return asked, res
}

// resultOf projects the two planes' result shapes onto one comparable
// struct — the byte-identity claim is over these fields.
type planeResult struct {
	Target       string
	Candidates   []string
	Questions    int
	Interactions int
	Backtracks   int
	Error        string
}

// TestStreamPlaneEquivalence is the cross-plane acceptance test at the
// fleet level: the same seeded discovery resolved through the router over
// /v1 JSON and over the binary stream produces byte-identical question
// sequences and results. Run under -race in CI.
func TestStreamPlaneEquivalence(t *testing.T) {
	f := newStreamFleet(t, []string{"a", "b"})
	target := map[string]bool{"a": true, "b": true, "h": true, "i": true} // S5

	jAsked, jres := driveJSON(t, f.front, target)

	c := f.dial(t)
	s := c.OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	sAsked, sres := driveStream(t, s, q, target)

	if !reflect.DeepEqual(jAsked, sAsked) {
		t.Fatalf("question sequences diverge:\n json  %v\n frame %v", jAsked, sAsked)
	}
	jr := planeResult{jres.Target, jres.Candidates, jres.Questions, jres.Interactions, jres.Backtracks, jres.Error}
	m := sres.Members[0]
	sr := planeResult{m.Target, m.Candidates, m.Questions, m.Interactions, m.Backtracks, m.Error}
	if !reflect.DeepEqual(jr, sr) {
		t.Fatalf("results diverge:\n json  %#v\n frame %#v", jr, sr)
	}
	if jr.Target != "S5" {
		t.Fatalf("expected S5, got %q", jr.Target)
	}
}

// TestStreamKillResurrect kills the engine holding a stream session
// mid-discovery (connections reset, probes refused — no graceful drain),
// lets the health loop detect the death and resurrect the session on the
// survivor from its last piggybacked snapshot, and continues the same
// stream: the router transparently re-attaches to the new owner, and the
// completed session is byte-identical to an undisturbed twin.
func TestStreamKillResurrect(t *testing.T) {
	f := newStreamFleet(t, []string{"a", "b"})
	target := map[string]bool{"a": true, "b": true, "c": true, "d": true, "f": true} // S3

	// Undisturbed twin for the byte-identity pin.
	cT := f.dial(t)
	sT := cT.OpenStream()
	qT, err := sT.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	wantAsked, wantRes := driveStream(t, sT, qT, target)
	sT.Close()

	// The session under test: answer two rounds, then kill its owner.
	c := f.dial(t)
	s := c.OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	id := q.ID

	f.rt.mu.RLock()
	ownerName := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()

	var asked []string
	answerOne := func() {
		t.Helper()
		mq := q.Members[0]
		ans := &wireproto.Answer{Entity: mq.Entity, Confirm: mq.Confirm, Answer: "no"}
		switch {
		case mq.Entity != "":
			asked = append(asked, "e:"+mq.Entity)
			if target[mq.Entity] {
				ans.Answer = "yes"
			}
		case mq.Confirm != "":
			asked = append(asked, "c:"+mq.Confirm)
			ans.Answer = "yes"
		}
		if q, err = s.Answer(ans, streamTestTimeout); err != nil {
			t.Fatal(err)
		}
	}
	answerOne()
	answerOne()
	if q.Done {
		t.Fatal("session finished before the kill — target too easy for the scenario")
	}

	f.engines[ownerName].kill()
	for i := 0; i < f.rt.health.FailThreshold; i++ {
		f.rt.CheckHealthNow(t.Context())
	}

	// The owner must have moved to the survivor.
	f.rt.mu.RLock()
	newOwner := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()
	if newOwner == ownerName {
		t.Fatalf("session still owned by dead backend %s", ownerName)
	}

	// Same stream, next answers: the router re-attaches behind the scenes.
	for i := 0; !q.Done; i++ {
		if i > 100 {
			t.Fatal("resurrected session did not converge")
		}
		answerOne()
	}
	res, err := s.Result(streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(asked, wantAsked) {
		t.Fatalf("question sequence diverged across the kill:\n undisturbed %v\n resurrected %v", wantAsked, asked)
	}
	m, wm := res.Members[0], wantRes.Members[0]
	m.SelectionTimeUS, wm.SelectionTimeUS = 0, 0 // wall-clock, legitimately differs
	if !reflect.DeepEqual(m, wm) {
		t.Fatalf("results diverge across the kill:\n undisturbed %#v\n resurrected %#v", wm, m)
	}
	if m.Target != "S3" {
		t.Fatalf("expected S3, got %q", m.Target)
	}
}

// TestStreamLeavesResumedNotice pins the one behaviour the planes do not
// share: a frame has no field for the resumed notice, so stream rounds
// after a resurrection leave it pending, and the resource's next JSON
// response still announces it — once.
func TestStreamLeavesResumedNotice(t *testing.T) {
	f := newStreamFleet(t, []string{"a", "b"})
	s := f.dial(t).OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	id := q.ID
	f.rt.mu.RLock()
	ownerName := f.rt.owners[id].b.name
	f.rt.mu.RUnlock()

	f.engines[ownerName].kill()
	for i := 0; i < f.rt.health.FailThreshold; i++ {
		f.rt.CheckHealthNow(t.Context())
	}
	// A stream round re-attaches to the survivor and answers.
	mq := q.Members[0]
	if _, err := s.Answer(&wireproto.Answer{Answer: "no", Entity: mq.Entity, Confirm: mq.Confirm}, streamTestTimeout); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"from=" + ownerName + "; questions=0", ""} {
		resp, err := http.Get(f.front + "/v1/sessions/" + id + "/question")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("JSON question %d after the stream round: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(ResumedHeader); got != want {
			t.Errorf("JSON response %d: %s = %q, want %q", i, ResumedHeader, got, want)
		}
	}
}
