package router

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"setdiscovery/internal/wireproto"
)

const streamTestTimeout = 5 * time.Second

// trackingListener counts and retains accepted connections so tests can
// bound pool sizes and simulate an abrupt engine kill. It can also hold the
// next connection it accepts, keeping every frame sent on it in flight.
type trackingListener struct {
	net.Listener
	accepted atomic.Int64
	mu       sync.Mutex
	conns    []net.Conn
	hold     chan struct{} // reads of the next accepted connection wait for it to close
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
		l.mu.Lock()
		l.conns = append(l.conns, c)
		if l.hold != nil {
			c = &heldConn{Conn: c, release: l.hold}
			l.hold = nil
		}
		l.mu.Unlock()
	}
	return c, err
}

// holdNext makes the engine read nothing from the next connection it
// accepts until release is called.
func (l *trackingListener) holdNext() (release func()) {
	ch := make(chan struct{})
	l.mu.Lock()
	l.hold = ch
	l.mu.Unlock()
	return sync.OnceFunc(func() { close(ch) })
}

// heldConn is an accepted connection whose reads wait for release.
type heldConn struct {
	net.Conn
	release <-chan struct{}
}

func (c *heldConn) Read(p []byte) (int, error) {
	<-c.release
	return c.Conn.Read(p)
}

func (l *trackingListener) killConns() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// streamEngine is one backend serving both planes.
type streamEngine struct {
	*engine
	ln *trackingListener
}

func newStreamEngine(t *testing.T) *streamEngine {
	t.Helper()
	e := newEngine(t)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &trackingListener{Listener: raw}
	t.Cleanup(func() { ln.Close() })
	go e.srv.ServeStream(ln)
	return &streamEngine{engine: e, ln: ln}
}

// kill severs the engine abruptly on both planes: HTTP refused (probes
// fail) and every stream connection reset, as a SIGKILLed process would.
func (se *streamEngine) kill() {
	se.ts.Close()
	se.ln.Close()
	se.ln.killConns()
}

// streamFleet is N dual-plane engines behind one dual-plane router.
type streamFleet struct {
	engines map[string]*streamEngine
	rt      *Router
	front   string // router HTTP base URL
	stream  string // router stream address
}

func newStreamFleet(t *testing.T, names []string, opts ...Option) *streamFleet {
	t.Helper()
	f := &streamFleet{engines: map[string]*streamEngine{}}
	f.rt = New(append([]Option{WithLogf(t.Logf)}, opts...)...)
	for _, name := range names {
		se := newStreamEngine(t)
		f.engines[name] = se
		if err := f.rt.AddBackend(name, se.ts.URL); err != nil {
			t.Fatal(err)
		}
		if err := f.rt.SetBackendStream(name, se.ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fln.Close() })
	go f.rt.ServeStream(fln)
	f.stream = fln.Addr().String()

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: f.rt.Handler()}
	go hs.Serve(httpLn)
	t.Cleanup(func() { hs.Close() })
	f.front = "http://" + httpLn.Addr().String()
	return f
}

func (f *streamFleet) dial(t *testing.T) *wireproto.Client {
	t.Helper()
	c, err := wireproto.Dial(f.stream, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// driveStream resolves one stream session against the target set,
// returning the question sequence ("e:x" / "c:S1" tokens) and the result.
func driveStream(t *testing.T, s *wireproto.Stream, q *wireproto.Question, target map[string]bool) ([]string, *wireproto.Result) {
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

// TestRouterStreamProxy drives a full session through the router's stream
// plane and checks the routing bookkeeping: affinity learned, snapshots
// captured from the forwarded WantState piggyback (and stripped from what
// the client sees), 404s for nonsense.
func TestRouterStreamProxy(t *testing.T) {
	f := newStreamFleet(t, []string{"a", "b"})
	c := f.dial(t)
	s := c.OpenStream()
	defer s.Close()

	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID == "" {
		t.Fatal("create returned no ID")
	}
	if len(q.State) != 0 {
		t.Fatal("router leaked its snapshot piggyback to the client")
	}
	f.rt.mu.RLock()
	own, ok := f.rt.owners[q.ID]
	captured := ok && own.snap != nil
	f.rt.mu.RUnlock()
	if !ok {
		t.Fatal("router did not learn affinity for the stream-created session")
	}
	if !captured {
		t.Fatal("router did not capture a creation snapshot")
	}

	target := map[string]bool{"a": true, "d": true, "e": true} // S2
	_, res := driveStream(t, s, q, target)
	if res.Members[0].Target != "S2" {
		t.Fatalf("expected S2, got %#v", res)
	}

	// Unknown attach and unbound answers are 404s.
	s2 := c.OpenStream()
	defer s2.Close()
	var re *wireproto.RemoteError
	if _, err := s2.Attach("nope", false, streamTestTimeout); !errors.As(err, &re) || re.Status != http.StatusNotFound {
		t.Fatalf("attach nonsense: got %v, want 404", err)
	}
	s3 := c.OpenStream()
	defer s3.Close()
	if _, err := s3.Answer(&wireproto.Answer{Answer: "yes"}, streamTestTimeout); !errors.As(err, &re) || re.Status != http.StatusNotFound {
		t.Fatalf("unbound answer: got %v, want 404", err)
	}
}

// TestStreamPoolBounded runs many concurrent sessions through the router
// and checks the router never holds more than DefaultStreamPoolSize stream
// connections per backend — the pooled fan-out replacing per-request
// dials.
func TestStreamPoolBounded(t *testing.T) {
	f := newStreamFleet(t, []string{"a"})
	c := f.dial(t)

	const sessions = 6 * DefaultStreamPoolSize
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.OpenStream()
			defer s.Close()
			q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
			if err != nil {
				errs <- err
				return
			}
			target := map[string]bool{"a": true, "b": true, "g": true} // S7
			for i := 0; !q.Done && i < 100; i++ {
				mq := q.Members[0]
				ans := &wireproto.Answer{Entity: mq.Entity, Confirm: mq.Confirm}
				ans.Answer = "no"
				if mq.Confirm != "" || target[mq.Entity] {
					ans.Answer = "yes"
				}
				if q, err = s.Answer(ans, streamTestTimeout); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := f.engines["a"].ln.accepted.Load(); got > DefaultStreamPoolSize {
		t.Fatalf("router opened %d stream connections to the backend, pool bound is %d", got, DefaultStreamPoolSize)
	}
}

// TestStreamPoolClosedOnDeath checks the condemned-link discipline: when
// the health loop declares a backend dead, its pooled stream connections
// are closed immediately.
func TestStreamPoolClosedOnDeath(t *testing.T) {
	f := newStreamFleet(t, []string{"a"})
	c := f.dial(t)
	s := c.OpenStream()
	if _, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout); err != nil {
		t.Fatal(err)
	}
	f.rt.mu.RLock()
	pool := f.rt.backends["a"].stream
	f.rt.mu.RUnlock()
	if n := pool.held(); n == 0 {
		t.Fatal("no pooled connection after a forwarded create")
	}

	f.engines["a"].kill()
	for i := 0; i < f.rt.health.FailThreshold; i++ {
		f.rt.CheckHealthNow(t.Context())
	}

	if n := pool.held(); n != 0 {
		t.Fatalf("the dead backend's pool holds %d connections, want 0", n)
	}
}

// held counts the pool's connections, closed or not: a pool prunes a
// broken connection only on its next use, so a pool that still holds one
// was not closed.
func (p *streamPool) held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// roundCount scrapes the router's /v1/metrics for the number of rounds its
// latency window has recorded against backend (0 before the first).
func roundCount(t *testing.T, front, backend string) int {
	t.Helper()
	resp, err := http.Get(front + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prefix := `setdiscovery_router_round_seconds_count{backend="` + backend + `"} `
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestStreamRoundsFeedLatencyWindow drives a session through the router's
// stream plane and checks that every forwarded answer lands in the owner's
// round-latency window, as a JSON-plane round does.
func TestStreamRoundsFeedLatencyWindow(t *testing.T) {
	f := newStreamFleet(t, []string{"a"})
	before := roundCount(t, f.front, "a")
	c := f.dial(t)
	s := c.OpenStream()
	defer s.Close()
	q, err := s.Create(&wireproto.Create{Collection: "paper"}, streamTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	target := map[string]bool{"a": true, "d": true, "e": true} // S2
	asked, _ := driveStream(t, s, q, target)
	if len(asked) == 0 {
		t.Fatal("session asked no questions")
	}
	if got := roundCount(t, f.front, "a") - before; got < len(asked) {
		t.Fatalf("latency window grew by %d over %d stream answers", got, len(asked))
	}
}

// waitUntil polls cond until it holds, failing the test after
// streamTestTimeout.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(streamTestTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamRecreateDuringRound sends a Create on a channel while an
// Answer on that channel is still in flight, over one client connection.
// The Answer's round must re-attach its resource to the engine (its pooled
// connection died), and the engine holds that re-attach until the Create
// has been served, so the Create replaces a channel whose round still owns
// it. Both frames must be answered, and the replaced channel's backend
// stream may be touched only under the channel's lock: run under -race.
// The client end is an in-memory pipe, so the router's replies to it are
// no socket writes, which the race detector would take to order every
// later socket read (the held round's among them) after the Create.
func TestStreamRecreateDuringRound(t *testing.T) {
	f := newStreamFleet(t, []string{"a"})
	eng := f.engines["a"]
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go f.rt.newStreamConn(server).serve()
	send := func(m wireproto.Message) {
		buf, err := wireproto.AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(client)
	recv := func() *wireproto.Question {
		t.Helper()
		client.SetReadDeadline(time.Now().Add(streamTestTimeout))
		m, err := wireproto.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		q, ok := m.(*wireproto.Question)
		if !ok || q.Channel != 1 || len(q.Members) != 1 {
			t.Fatalf("got %#v, want a single-session question on channel 1", m)
		}
		return q
	}

	send(&wireproto.Create{Channel: 1, Collection: "paper"})
	first := recv()

	// Break the router's pooled connection, so the next round re-dials,
	// and hold the connection it dials.
	eng.ln.killConns()
	f.rt.mu.RLock()
	pool := f.rt.backends["a"].stream
	f.rt.mu.RUnlock()
	waitUntil(t, "the router sees its stream connection fail", func() bool {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		for _, c := range pool.conns {
			if c.Err() == nil {
				return false
			}
		}
		return true
	})
	release := eng.ln.holdNext()
	t.Cleanup(release)

	accepted := eng.ln.accepted.Load()
	send(&wireproto.Answer{Channel: 1, Answer: "no", Entity: first.Members[0].Entity})
	waitUntil(t, "the round dials the held connection", func() bool { return eng.ln.accepted.Load() > accepted })
	captures := f.rt.metrics.captures.Load()
	send(&wireproto.Create{Channel: 1, Collection: "paper"})
	waitUntil(t, "the second create is captured", func() bool { return f.rt.metrics.captures.Load() > captures })
	release()

	var answered, created *wireproto.Question
	for i := 0; i < 2; i++ {
		q := recv()
		if q.ID == "" || q.ID == first.ID {
			answered = q
		} else {
			created = q
		}
	}
	if answered == nil || answered.Members[0].Questions != 1 {
		t.Errorf("the answer in flight was answered with %+v, want the question after one answer", answered)
	}
	if created == nil || created.Members[0].Questions != 0 {
		t.Errorf("the second create was answered with %+v, want a fresh session's first question", created)
	}
}
