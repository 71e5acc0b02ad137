package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"setdiscovery"
	"setdiscovery/internal/server"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/wireproto"
)

// bitsSets is a 32-set collection, T00..T31, where Tn holds "x" plus bN for
// every bit N set in n: every entity question halves the candidates, so a
// discovery takes five rounds — long enough to kill its owner between any
// two of them at cadences below and above its length.
func bitsSets() map[string][]string {
	sets := make(map[string][]string)
	for n := 0; n < 32; n++ {
		set := []string{"x"}
		for b := 0; b < 5; b++ {
			if n>>b&1 == 1 {
				set = append(set, fmt.Sprintf("b%d", b))
			}
		}
		sets[fmt.Sprintf("T%02d", n)] = set
	}
	return sets
}

// registerBits adds the bits collection to every engine of a fleet.
func registerBits(t *testing.T, srvs ...*server.Server) {
	t.Helper()
	c, err := setdiscovery.NewCollection(bitsSets())
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range srvs {
		if err := srv.Register("bits", c); err != nil {
			t.Fatal(err)
		}
	}
}

// truthful answers one question for the bits target named target.
func truthful(target, entity, confirm string, subset []string, semantics string) string {
	members := make(map[string]bool)
	for _, e := range bitsSets()[target] {
		members[e] = true
	}
	switch {
	case confirm != "":
		if confirm == target {
			return "yes"
		}
		return "no"
	case len(subset) > 0:
		return groupAnswerFor(members, subset, semantics)
	case members[entity]:
		return "yes"
	}
	return "no"
}

// token renders one member's pending question for sequence comparisons.
func token(done bool, entity, confirm string, subset []string, semantics string) string {
	switch {
	case done:
		return "done"
	case entity != "":
		return "e:" + entity
	case confirm != "":
		return "c:" + confirm
	}
	return fmt.Sprintf("s:%s:%v", semantics, subset)
}

// journalRun drives one resource through the router: pending holds the
// question tokens of its last reply (one per member), questions that
// reply's question count (-1 for a batch), and asked every token answered.
type journalRun struct {
	id        string
	kindPath  string
	done      bool
	pending   []string
	questions int
	asked     []string
	answer    func(t *testing.T) // answers the pending question(s) truthfully
	refetch   func(t *testing.T) // re-reads the pending question (JSON runs)
	result    func(t *testing.T) string
}

// journalKind starts one kind of resource on a fleet.
type journalKind struct {
	name  string
	start func(t *testing.T, f *streamFleet) *journalRun
}

var journalKinds = []journalKind{
	{"json-session", func(t *testing.T, f *streamFleet) *journalRun {
		return startJSONRun(t, f.front, "T21", server.SessionConfig{})
	}},
	{"stream-session", func(t *testing.T, f *streamFleet) *journalRun {
		return startStreamRun(t, f, []string{"T10"})
	}},
	{"stream-batch", func(t *testing.T, f *streamFleet) *journalRun {
		return startStreamRun(t, f, []string{"T05", "T22", "T31"})
	}},
	{"group-session", func(t *testing.T, f *streamFleet) *journalRun {
		return startJSONRun(t, f.front, "T13", server.SessionConfig{GroupStrategy: "halving"})
	}},
}

// startJSONRun creates a session over the router's JSON plane.
func startJSONRun(t *testing.T, front, target string, cfg server.SessionConfig) *journalRun {
	t.Helper()
	var q server.QuestionResponse
	if code := do(t, http.MethodPost, front+"/v1/collections/bits/sessions",
		server.CreateSessionRequest{SessionConfig: cfg}, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	run := &journalRun{id: q.SessionID, kindPath: "sessions"}
	load := func() {
		run.done, run.questions = q.Done, q.Questions
		run.pending = []string{token(q.Done, q.Entity, q.Confirm, q.Subset, q.Semantics)}
	}
	load()
	run.answer = func(t *testing.T) {
		t.Helper()
		req := server.AnswerRequest{Answer: truthful(target, q.Entity, q.Confirm, q.Subset, q.Semantics),
			Entity: q.Entity, Confirm: q.Confirm, Subset: q.Subset, Semantics: q.Semantics}
		run.asked = append(run.asked, run.pending...)
		var next server.QuestionResponse
		if code := do(t, http.MethodPost, front+"/v1/sessions/"+run.id+"/answer", req, &next); code != http.StatusOK {
			t.Fatalf("answer %d: status %d", len(run.asked), code)
		}
		q = next
		load()
	}
	run.refetch = func(t *testing.T) {
		t.Helper()
		if code := do(t, http.MethodGet, front+"/v1/sessions/"+run.id+"/question", nil, &q); code != http.StatusOK {
			t.Fatalf("question: status %d", code)
		}
		load()
	}
	run.result = func(t *testing.T) string {
		t.Helper()
		var res server.ResultResponse
		if code := do(t, http.MethodGet, front+"/v1/sessions/"+run.id+"/result", nil, &res); code != http.StatusOK {
			t.Fatalf("result: status %d", code)
		}
		return fmt.Sprintf("%s q=%d i=%d b=%d %s", res.Target, res.Questions, res.Interactions, res.Backtracks, res.Error)
	}
	return run
}

// startStreamRun creates a session (one target) or a batch (several) over
// the router's stream plane.
func startStreamRun(t *testing.T, f *streamFleet, targets []string) *journalRun {
	t.Helper()
	s := f.dial(t).OpenStream()
	t.Cleanup(s.Close)
	create := &wireproto.Create{Collection: "bits"}
	if len(targets) > 1 {
		create.Batch = true
		create.Seeds = make([][]string, len(targets))
	}
	q, err := s.Create(create, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	run := &journalRun{id: q.ID, kindPath: "sessions"}
	if create.Batch {
		run.kindPath = "batches"
	}
	load := func() {
		run.done, run.questions, run.pending = q.Done, -1, nil
		for _, mq := range q.Members {
			run.pending = append(run.pending, token(mq.Done, mq.Entity, mq.Confirm, mq.Subset, mq.Semantics))
		}
		if !create.Batch {
			run.questions = q.Members[0].Questions
		}
	}
	load()
	run.answer = func(t *testing.T) {
		t.Helper()
		run.asked = append(run.asked, run.pending...)
		var err error
		if !create.Batch {
			mq := q.Members[0]
			q, err = s.Answer(&wireproto.Answer{Answer: truthful(targets[0], mq.Entity, mq.Confirm, mq.Subset, mq.Semantics),
				Entity: mq.Entity, Confirm: mq.Confirm, Subset: mq.Subset, Semantics: mq.Semantics}, streamTestTimeout)
		} else {
			var ba wireproto.BatchAnswer
			for _, mq := range q.Members {
				if !mq.Done {
					ba.Answers = append(ba.Answers, wireproto.MemberAnswer{Member: mq.Member,
						Answer: truthful(targets[mq.Member], mq.Entity, mq.Confirm, mq.Subset, mq.Semantics),
						Entity: mq.Entity, Confirm: mq.Confirm, Subset: mq.Subset, Semantics: mq.Semantics})
				}
			}
			q, err = s.AnswerBatch(&ba, streamTestTimeout)
		}
		if err != nil {
			t.Fatalf("answer %d: %v", len(run.asked), err)
		}
		for _, mq := range q.Members {
			if mq.Error != "" {
				t.Fatalf("answer %d: member %d rejected: %s", len(run.asked), mq.Member, mq.Error)
			}
		}
		load()
	}
	run.result = func(t *testing.T) string {
		t.Helper()
		res, err := s.Result(streamTestTimeout)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range res.Members {
			out = append(out, fmt.Sprintf("%s q=%d i=%d b=%d %s", m.Target, m.Questions, m.Interactions, m.Backtracks, m.Error))
		}
		return strings.Join(out, " | ")
	}
	return run
}

// fetchPending re-reads a resource's pending question(s) over the JSON
// plane, with the resumed notice the response carried.
func fetchPending(t *testing.T, front string, run *journalRun) ([]string, string) {
	t.Helper()
	if run.kindPath == "sessions" {
		var q server.QuestionResponse
		status, hdr := getWithHeaders(t, front+"/v1/sessions/"+run.id+"/question", &q)
		if status != http.StatusOK {
			t.Fatalf("question: status %d", status)
		}
		return []string{token(q.Done, q.Entity, q.Confirm, q.Subset, q.Semantics)}, hdr.Get(ResumedHeader)
	}
	var q server.BatchQuestionResponse
	status, hdr := getWithHeaders(t, front+"/v1/batches/"+run.id+"/questions", &q)
	if status != http.StatusOK {
		t.Fatalf("questions: status %d", status)
	}
	var out []string
	for _, mq := range q.Members {
		out = append(out, token(mq.Done, mq.Entity, mq.Confirm, mq.Subset, mq.Semantics))
	}
	return out, hdr.Get(ResumedHeader)
}

// newBitsFleet is a two-engine dual-plane fleet serving the bits
// collection as well as the paper one.
func newBitsFleet(t *testing.T, opts ...Option) *streamFleet {
	t.Helper()
	f := newStreamFleet(t, []string{"a", "b"}, opts...)
	registerBits(t, f.engines["a"].srv, f.engines["b"].srv)
	return f
}

// TestChaosJournalKillEveryRound is the zero-rounds-lost acceptance test.
// For each kind of resource and cadence, and for every round offset, the
// owner is killed (no drain, no export) after that many acknowledged
// answers. The resource must resume on the survivor at exactly the
// crash-point question — its last snapshot plus the replayed journal — and
// finish with its undisturbed twin's questions and result.
func TestChaosJournalKillEveryRound(t *testing.T) {
	for _, kind := range journalKinds {
		// The undisturbed twin, on a fleet of its own.
		twin := kind.start(t, newBitsFleet(t))
		for !twin.done {
			twin.answer(t)
		}
		wantAsked, wantResult := twin.asked, twin.result(t)
		rounds := len(wantAsked) / len(twin.pending)
		if rounds < 4 {
			t.Fatalf("%s: twin answered %d rounds, want a longer discovery", kind.name, rounds)
		}
		for _, every := range []int{1, 3, DefaultSnapshotEvery} {
			for offset := 0; offset <= rounds; offset++ {
				t.Run(fmt.Sprintf("%s/every=%d/offset=%d", kind.name, every, offset), func(t *testing.T) {
					killAfter(t, kind, every, offset, wantAsked, wantResult)
				})
			}
		}
	}
}

// killAfter runs one case of TestChaosJournalKillEveryRound.
func killAfter(t *testing.T, kind journalKind, every, offset int, wantAsked []string, wantResult string) {
	f := newBitsFleet(t, WithSnapshotEvery(every))
	run := kind.start(t, f)
	for i := 0; i < offset; i++ {
		run.answer(t)
	}
	crashPoint, crashQuestions := run.pending, run.questions

	// One capture at create and one every `every` rounds; the rounds since
	// the last capture are journaled.
	f.rt.mu.RLock()
	own := f.rt.owners[run.id]
	ownerName, journaled := own.b.name, len(own.journal)
	f.rt.mu.RUnlock()
	if want := offset % every; journaled != want {
		t.Fatalf("journal holds %d rounds after %d answers, want %d", journaled, offset, want)
	}
	if got, want := f.rt.metrics.captures.Load(), int64(1+offset/every); got != want {
		t.Fatalf("%d snapshot captures after %d answers, want %d", got, offset, want)
	}

	f.engines[ownerName].kill()
	for i := 0; i < f.rt.health.FailThreshold; i++ {
		f.rt.CheckHealthNow(context.Background())
	}
	f.rt.mu.RLock()
	newOwner := f.rt.owners[run.id].b.name
	f.rt.mu.RUnlock()
	if newOwner == ownerName {
		t.Fatalf("resource still owned by dead backend %s", ownerName)
	}
	if got := f.rt.metrics.resurrections.Load(); got != 1 {
		t.Fatalf("%d resurrections, want 1", got)
	}
	if got, want := f.rt.metrics.replayedAnswers.Load(), int64(offset%every); got != want {
		t.Fatalf("%d answers replayed, want %d", got, want)
	}

	// Resumed at exactly the crash point, and announced as such.
	resumed, notice := fetchPending(t, f.front, run)
	if !reflect.DeepEqual(resumed, crashPoint) {
		t.Fatalf("resumed at %v, want the crash-point question %v", resumed, crashPoint)
	}
	if want := fmt.Sprintf("from=%s; questions=%d", ownerName, crashQuestions); notice != want {
		t.Fatalf("%s = %q, want %q", ResumedHeader, notice, want)
	}

	for i := 0; !run.done; i++ {
		if i > 100 {
			t.Fatal("resurrected resource did not converge")
		}
		run.answer(t)
	}
	if !reflect.DeepEqual(run.asked, wantAsked) {
		t.Fatalf("questions diverged across the kill:\n undisturbed %v\n resurrected %v", wantAsked, run.asked)
	}
	if got := run.result(t); got != wantResult {
		t.Fatalf("result diverged across the kill:\n undisturbed %s\n resurrected %s", wantResult, got)
	}
}

// TestChaosLostReplyGap pins the one case the journal cannot cover alone:
// an answer the owner applied but whose reply never reached the router. Its
// fate is unknown, so the journal stops at the gap and the next answer
// captures a snapshot; a kill inside that window resumes at the last
// acknowledged round and says so in the notice.
func TestChaosLostReplyGap(t *testing.T) {
	const target = "T21"
	twinFleet := newChaosFleet(t)
	registerBits(t, twinFleet.engines["a"].srv, twinFleet.engines["b"].srv)
	twin := startJSONRun(t, twinFleet.front.URL, target, server.SessionConfig{})
	for !twin.done {
		twin.answer(t)
	}

	// start answers two rounds, then loses the reply of the third.
	start := func(t *testing.T) (*chaosFleet, *journalRun, string) {
		f := newChaosFleet(t, WithSnapshotEvery(16))
		registerBits(t, f.engines["a"].srv, f.engines["b"].srv)
		run := startJSONRun(t, f.front.URL, target, server.SessionConfig{})
		run.answer(t)
		run.answer(t)
		f.rt.mu.RLock()
		own := f.rt.owners[run.id]
		ownerName := own.b.name
		f.rt.mu.RUnlock()
		proxy := f.proxies[ownerName]
		proxy.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, "/answer") })
		proxy.FailNext(1, testutil.ChaosResetAfter)
		entity := strings.TrimPrefix(run.pending[0], "e:") // bits sessions ask entity questions
		code := do(t, http.MethodPost, f.front.URL+"/v1/sessions/"+run.id+"/answer",
			server.AnswerRequest{Answer: truthful(target, entity, "", nil, ""), Entity: entity}, nil)
		if code != http.StatusBadGateway {
			t.Fatalf("answer with a lost reply: status %d, want 502", code)
		}
		proxy.SetPathFilter(nil)
		f.rt.mu.RLock()
		journaled, gap := len(own.journal), own.gap
		f.rt.mu.RUnlock()
		if journaled != 2 || !gap {
			t.Fatalf("after a lost reply: journal %d rounds, gap %v; want 2 rounds and a gap", journaled, gap)
		}
		return f, run, ownerName
	}

	t.Run("next-answer-captures", func(t *testing.T) {
		f, run, _ := start(t)
		// The lost answer was applied: the client re-fetches and sees the
		// question after it.
		pending, _ := fetchPending(t, f.front.URL, run)
		run.refetch(t)
		if reflect.DeepEqual(pending, []string{twin.asked[2]}) {
			t.Fatalf("lost answer was not applied: still at %v", pending)
		}
		before := f.rt.metrics.captures.Load()
		run.answer(t)
		if got := f.rt.metrics.captures.Load() - before; got != 1 {
			t.Fatalf("the answer after a gap captured %d snapshots, want 1", got)
		}
		f.rt.mu.RLock()
		own := f.rt.owners[run.id]
		journaled, gap, snapQuestions := len(own.journal), own.gap, own.snapQuestions
		f.rt.mu.RUnlock()
		if journaled != 0 || gap || snapQuestions != run.questions {
			t.Fatalf("after the capture: journal %d rounds, gap %v, snapshot at question %d; want 0, false, %d",
				journaled, gap, snapQuestions, run.questions)
		}
	})

	t.Run("kill-in-the-gap", func(t *testing.T) {
		f, run, ownerName := start(t)
		f.proxies[ownerName].SetMode(testutil.ChaosReset)
		f.detectDeath(t)
		pending, notice := fetchPending(t, f.front.URL, run)
		if !reflect.DeepEqual(pending, []string{twin.asked[2]}) {
			t.Fatalf("resumed at %v, want the last acknowledged round's question %v", pending, twin.asked[2])
		}
		if want := fmt.Sprintf("from=%s; questions=2", ownerName); notice != want {
			t.Fatalf("%s = %q, want %q", ResumedHeader, notice, want)
		}
		// The client re-answers the question whose reply it lost and
		// finishes as the twin did.
		run.refetch(t)
		for !run.done {
			run.answer(t)
		}
		if !reflect.DeepEqual(run.asked, twin.asked) {
			t.Fatalf("questions diverged:\n undisturbed %v\n resumed     %v", twin.asked, run.asked)
		}
	})
}

// TestChaosAnswerDuringDrain pins the drain race: migration exports the
// old owner's state, imports it on the new one, then flips the owner. An
// answer sent between export and flip must not be applied on the old
// owner, whose copy is deleted after the flip — it waits for the flip and
// reaches the new owner, so the session finishes as its twin does.
func TestChaosAnswerDuringDrain(t *testing.T) {
	f := newChaosFleet(t)
	oracle, err := f.engines["a"].c.TargetOracle("S4")
	if err != nil {
		t.Fatal(err)
	}
	create := server.CreateSessionRequest{}
	wantAsked, wantRes := fullSequence(t, newEngine(t).ts.URL, create, oracle)
	if len(wantAsked) < 3 {
		t.Fatalf("want a discovery of at least 3 questions, got %v", wantAsked)
	}

	var q server.QuestionResponse
	if code := do(t, http.MethodPost, f.front.URL+"/v1/collections/paper/sessions", create, &q); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	asked := []string{q.Entity}
	q = answerOnce(t, f.front.URL, q, oracle)
	if q.Done {
		t.Fatal("session finished before the drain — target too easy for the scenario")
	}
	var ownerName, dest string
	for name, n := range sessionOwner(t, f.front.URL) {
		if n > 0 {
			ownerName = name
		} else {
			dest = name
		}
	}

	// Hold the destination's import long enough to answer inside it.
	proxy := f.proxies[dest]
	proxy.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, "/state") })
	proxy.SetDelay(400 * time.Millisecond)
	proxy.SetMode(testutil.ChaosDelay)
	before := proxy.Requests()
	drained := make(chan int, 1)
	go func() {
		n, err := f.rt.Drain(ownerName)
		if err != nil {
			t.Error(err)
		}
		drained <- n
	}()
	for deadline := time.Now().Add(5 * time.Second); proxy.Requests() == before; {
		if time.Now().After(deadline) {
			t.Fatal("the migration never reached the destination")
		}
		time.Sleep(time.Millisecond)
	}
	asked = append(asked, q.Entity)
	q = answerOnce(t, f.front.URL, q, oracle)
	if n := <-drained; n != 1 {
		t.Fatalf("drain migrated %d resources, want 1", n)
	}
	var now server.QuestionResponse
	if code := do(t, http.MethodGet, f.front.URL+"/v1/sessions/"+q.SessionID+"/question", nil, &now); code != http.StatusOK {
		t.Fatalf("question after the drain: status %d", code)
	}
	if now.Questions != q.Questions || now.Entity != q.Entity || now.Done != q.Done {
		t.Fatalf("after the drain the session is at %+v, want %+v: the answer sent during the migration was lost", now, q)
	}

	for rounds := 0; !q.Done; rounds++ {
		if rounds > 100 {
			t.Fatal("session did not converge after the drain")
		}
		if q.Entity != "" {
			asked = append(asked, q.Entity)
		}
		q = answerOnce(t, f.front.URL, q, oracle)
	}
	if !reflect.DeepEqual(asked, wantAsked) {
		t.Fatalf("asked %v, twin asked %v", asked, wantAsked)
	}
	var res server.ResultResponse
	if code := do(t, http.MethodGet, f.front.URL+"/v1/sessions/"+q.SessionID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.Target != wantRes.Target || res.Questions != wantRes.Questions {
		t.Errorf("result %+v, twin %+v", res, wantRes)
	}
}

// TestStreamChannelMapBounded serves 256 stream sessions over one client
// connection, each finished and then DELETEd through the router's JSON
// plane. Clients never tell the router they are done with a channel, so
// the connection's channel map must shed the channels of gone resources on
// its own and stay under a fixed bound.
func TestStreamChannelMapBounded(t *testing.T) {
	f := newStreamFleet(t, []string{"a"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := make(chan *routerStreamConn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if wireproto.ReadPreface(conn) != nil {
			return
		}
		sc := f.rt.newStreamConn(conn)
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
		if _, res := driveStream(t, s, q, target); res.Members[0].Target != "S2" {
			t.Fatalf("session %d resolved %q, want S2", i, res.Members[0].Target)
		}
		s.Close()
		if code := do(t, http.MethodDelete, f.front+"/v1/sessions/"+q.ID, nil, nil); code != http.StatusNoContent {
			t.Fatalf("delete: status %d", code)
		}
		sc.mu.Lock()
		n := len(sc.chans)
		sc.mu.Unlock()
		if n > chanSweepFloor {
			t.Fatalf("after %d finished and deleted sessions the connection binds %d channels, want at most %d",
				i+1, n, chanSweepFloor)
		}
	}
}

// chainSets is a 17-set collection whose every entity question can rule
// out only one set: Cn holds "x" and its own entity un. Answering "no"
// throughout keeps a discovery going for 16 rounds.
func chainSets() map[string][]string {
	sets := make(map[string][]string)
	for n := 0; n < 17; n++ {
		sets[fmt.Sprintf("C%02d", n)] = []string{"x", fmt.Sprintf("u%02d", n)}
	}
	return sets
}

// BenchmarkResurrect times one resurrection of a session 15 rounds into
// its discovery: the import of its last snapshot onto the survivor plus the
// replay of its journal. At cadence 1 every round was captured, so the
// journal is empty (journal-0); at cadence 16 the snapshot is the create
// one and all 15 rounds replay (journal-15). Each iteration parks the
// session on a backend outside the ring and resurrects it from there; the
// survivor's selection memo is warm after the first iteration, as a
// survivor serving the same collection usually is.
func BenchmarkResurrect(b *testing.B) {
	for _, tc := range []struct {
		name  string
		every int
	}{{"journal-0", 1}, {"journal-15", 16}} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := setdiscovery.NewCollection(chainSets())
			if err != nil {
				b.Fatal(err)
			}
			rt := New(WithSnapshotEvery(tc.every))
			for _, name := range []string{"a", "b"} {
				e := newEngine(b)
				if err := e.srv.Register("chain", c); err != nil {
					b.Fatal(err)
				}
				if err := rt.AddBackend(name, e.ts.URL); err != nil {
					b.Fatal(err)
				}
			}
			front := httptest.NewServer(rt.Handler())
			b.Cleanup(front.Close)
			var q server.QuestionResponse
			if code := do(b, http.MethodPost, front.URL+"/v1/collections/chain/sessions", nil, &q); code != http.StatusCreated {
				b.Fatalf("create: status %d", code)
			}
			id := q.SessionID
			for i := 0; i < 15; i++ {
				if code := do(b, http.MethodPost, front.URL+"/v1/sessions/"+id+"/answer",
					server.AnswerRequest{Answer: "no", Entity: q.Entity}, &q); code != http.StatusOK || q.Done {
					b.Fatalf("answer %d: status %d, done %v", i+1, code, q.Done)
				}
			}
			rt.mu.RLock()
			own := rt.owners[id]
			journaled := len(own.journal)
			rt.mu.RUnlock()
			if want := 15 % tc.every; journaled != want {
				b.Fatalf("journal holds %d rounds, want %d", journaled, want)
			}
			away := &backend{name: "away", base: own.b.base}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.mu.Lock()
				own.b = away
				rt.mu.Unlock()
				if moved, err := rt.resurrectOne(context.Background(), id, own, away); err != nil || !moved {
					b.Fatalf("resurrection: moved %v, %v", moved, err)
				}
			}
			b.StopTimer()
			var got server.QuestionResponse
			if code := do(b, http.MethodGet, front.URL+"/v1/sessions/"+id+"/question", nil, &got); code != http.StatusOK ||
				got.Entity != q.Entity || got.Questions != 15 {
				b.Fatalf("resurrected at %+v (status %d), want %+v", got, code, q)
			}
		})
	}
}
