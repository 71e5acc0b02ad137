package router

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"setdiscovery/internal/server"
	"setdiscovery/internal/wireproto"
)

// The router's stream-plane front (internal/wireproto). Clients speak the
// same frame protocol to the router as to an engine; the router terminates
// every client frame and forwards it over a bounded per-backend connection
// pool — persistent, multiplexed TCP links replacing the JSON plane's
// per-request proxy transactions. Because each hop is terminated (not
// spliced), the frame handlers run the same owner-bookkeeping core as the
// JSON handlers (core.go): every frame re-resolves its resource's owner,
// every forwarded create asks the engine for an inline snapshot, every
// forwarded answer either does so on the router's cadence or joins the
// answer journal as the JSON body the engine's answer endpoint takes, and
// when an owner dies and its sessions are resurrected elsewhere, the next
// frame transparently re-attaches to the new owner. The one JSON-plane
// behaviour without a stream counterpart is the ResumedHeader notice: no
// frame field carries it, so it stays pending for the resource's next JSON
// response.

// DefaultStreamPoolSize is the per-backend stream-connection bound. Each
// connection multiplexes arbitrarily many channels, so a handful is enough
// to spread load across engine accept loops; the bound keeps file
// descriptors predictable at any fleet size.
const DefaultStreamPoolSize = 4

// streamDialTimeout bounds one pool dial; stream backends are LAN peers.
const streamDialTimeout = 5 * time.Second

// SetBackendStream records a backend's stream-plane listen address
// (host:port) by giving the backend a fresh connection pool to it; the
// connections of a pool it replaces are closed. Stream addresses are not
// persisted in the router log — the daemon replays its -stream-route flags
// at startup, exactly like -route.
func (rt *Router) SetBackendStream(name, addr string) error {
	rt.mu.Lock()
	b, ok := rt.backends[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("%w %q", ErrNoBackend, name)
	}
	old := b.stream
	b.stream = &streamPool{addr: addr}
	rt.mu.Unlock()
	old.closeAll()
	return nil
}

// streamPool is a bounded set of multiplexed stream connections to one
// backend. get lazily dials up to DefaultStreamPoolSize connections,
// round-robins across them, and prunes any whose transport has failed — so
// after a backend death the pool drains, and the first frame following its
// resurrection or recovery re-dials fresh (failover re-dial).
type streamPool struct {
	mu    sync.Mutex
	addr  string
	conns []*wireproto.Client
	next  int
}

func (p *streamPool) get() (*wireproto.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.conns[:0]
	for _, c := range p.conns {
		if c.Err() != nil {
			c.Close()
			continue
		}
		live = append(live, c)
	}
	p.conns = live
	if len(p.conns) < DefaultStreamPoolSize {
		c, err := wireproto.Dial(p.addr, streamDialTimeout)
		if err != nil {
			if len(p.conns) > 0 {
				// A failed grow-dial with healthy connections left is a
				// capacity hiccup, not an outage: serve from what we have.
				return p.pick(), nil
			}
			return nil, err
		}
		p.conns = append(p.conns, c)
		return c, nil
	}
	return p.pick(), nil
}

func (p *streamPool) pick() *wireproto.Client {
	c := p.conns[p.next%len(p.conns)]
	p.next++
	return c
}

// closeAll closes every pooled connection in place; a later get re-dials.
// A nil pool (an HTTP-only backend) has nothing to close.
func (p *streamPool) closeAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// pool returns b's stream-connection pool, nil for an HTTP-only backend.
func (rt *Router) pool(b *backend) *streamPool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return b.stream
}

// streamConn returns a pooled connection to b's stream address.
func (rt *Router) streamConn(b *backend) (*wireproto.Client, error) {
	p := rt.pool(b)
	if p == nil || p.addr == "" {
		return nil, fmt.Errorf("backend %s has no stream address", b.name)
	}
	return p.get()
}

// ServeStream accepts stream-plane client connections on l until it is
// closed, then returns nil.
func (rt *Router) ServeStream(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go rt.serveStreamConn(conn)
	}
}

// proxyChan is one client channel's routing state: the bound resource and
// the backend-side stream currently carrying it. The backend stream is
// remade whenever the owner moves or its connection dies.
type proxyChan struct {
	mu       sync.Mutex
	id       string
	kindPath string

	backendName string
	bc          *wireproto.Client
	bs          *wireproto.Stream
}

// routerStreamConn is one accepted client connection on the router's
// stream plane.
type routerStreamConn struct {
	rt   *Router
	conn net.Conn

	wmu sync.Mutex

	mu      sync.Mutex
	chans   map[uint64]*proxyChan
	sweepAt int // chans size that triggers the next sweep of gone resources
}

// streamProxyWorkers bounds concurrently-processed frames per client
// connection (same rationale as the engine's bound).
const streamProxyWorkers = 256

// chanSweepFloor is the smallest channel map a sweep runs on. Clients do
// not tell the router when they are done with a channel, so a long-lived
// connection would keep every channel it ever bound; each time the map
// has doubled since the last sweep (and holds at least this many), the
// channels whose resource is gone are dropped — amortised O(1) per bind.
const chanSweepFloor = 64

func (rt *Router) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	if err := wireproto.ReadPreface(conn); err != nil {
		rt.logf("router: stream preface from %s: %v", conn.RemoteAddr(), err)
		return
	}
	rt.newStreamConn(conn).serve()
}

func (rt *Router) newStreamConn(conn net.Conn) *routerStreamConn {
	return &routerStreamConn{rt: rt, conn: conn, chans: make(map[uint64]*proxyChan), sweepAt: chanSweepFloor}
}

// serve handles the connection's frames, past the preface, until the
// client hangs up.
func (sc *routerStreamConn) serve() {
	rt := sc.rt
	conn := sc.conn
	defer sc.closeChans()
	br := bufio.NewReader(conn)
	sem := make(chan struct{}, streamProxyWorkers)
	var wg sync.WaitGroup
	for {
		m, err := wireproto.ReadFrame(br)
		if err != nil {
			if errors.Is(err, wireproto.ErrBadFrame) {
				rt.logf("router: stream from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			sc.handle(m)
		}()
	}
	wg.Wait()
}

// closeChans releases every backend-side stream when the client hangs up;
// the pooled connections themselves stay for other clients.
func (sc *routerStreamConn) closeChans() {
	sc.mu.Lock()
	chans := sc.chans
	sc.chans = nil
	sc.mu.Unlock()
	for _, pc := range chans {
		pc.release()
	}
}

// release closes the channel's backend stream once no round holds the
// channel, for a channel the connection no longer maps.
func (pc *proxyChan) release() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.bs != nil {
		pc.bs.Close()
		pc.bs = nil
	}
}

func (sc *routerStreamConn) write(m wireproto.Message) {
	buf, err := wireproto.AppendFrame(nil, m)
	if err != nil {
		sc.rt.logf("router: stream response encode: %v", err)
		return
	}
	sc.wmu.Lock()
	_, err = sc.conn.Write(buf)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
}

func (sc *routerStreamConn) fail(ch uint64, status int, err error) {
	if status >= 500 {
		sc.rt.logf("router: stream: %v", err)
	}
	sc.write(&wireproto.Error{Channel: ch, Status: status, Msg: err.Error()})
}

func (sc *routerStreamConn) handle(m wireproto.Message) {
	switch req := m.(type) {
	case *wireproto.Create:
		sc.handleCreate(req)
	case *wireproto.Answer:
		sc.handleRound(req.Channel, req, req.WantState)
	case *wireproto.BatchAnswer:
		sc.handleRound(req.Channel, req, req.WantState)
	case *wireproto.ResultRequest:
		sc.handleResultReq(req)
	default:
		sc.fail(m.ChannelID(), http.StatusBadRequest,
			fmt.Errorf("unexpected client frame type %d", m.Type()))
	}
}

func (sc *routerStreamConn) channel(ch uint64) (*proxyChan, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pc, ok := sc.chans[ch]
	return pc, ok
}

// handleCreate binds a client channel: placement by collection ring owner
// for fresh resources, owner lookup for AttachID re-binds. A forwarded
// fresh create always demands an inline snapshot, so stream-created
// resources are resurrectable from the moment they exist, exactly like the
// JSON plane's create path. An attach captures nothing: it runs outside
// the resource's answer lock, so its state could predate a journaled
// round.
func (sc *routerStreamConn) handleCreate(req *wireproto.Create) {
	rt := sc.rt
	rte := route{kindPath: "sessions", collection: req.Collection}
	if req.Batch {
		rte.kindPath = "batches"
	}
	if req.AttachID != "" {
		var err error
		if rte, err = rt.resolve(req.AttachID, "", false); err != nil {
			sc.forwardError(req.Channel, "", err)
			return
		}
	} else {
		rte.b = rt.ringOwner(rte.collection)
	}
	if rte.b == nil {
		sc.fail(req.Channel, http.StatusServiceUnavailable, errNoLiveBackend)
		return
	}

	bc, err := rt.streamConn(rte.b)
	if err != nil {
		sc.fail(req.Channel, http.StatusBadGateway, err)
		return
	}
	bs := bc.OpenStream()
	fwd := *req
	fresh := req.AttachID == ""
	fwd.WantState = req.WantState || fresh // snapshot capture piggyback, stripped below
	start := time.Now()
	q, err := bs.Create(&fwd, rt.proxyTimeout)
	sc.observe(rte.b.name, start, err)
	if err != nil {
		bs.Close()
		sc.forwardError(req.Channel, "", err)
		return
	}

	if fresh && q.ID != "" {
		rt.adopt(q.ID, rte.b, rte.kindPath, rte.collection)
		sc.capture(q.ID, rte, q)
	}

	pc := &proxyChan{id: q.ID, kindPath: rte.kindPath, backendName: rte.b.name, bc: bc, bs: bs}
	sc.mu.Lock()
	if sc.chans == nil { // client already hung up
		sc.mu.Unlock()
		bs.Close()
		return
	}
	old := sc.chans[req.Channel]
	sc.chans[req.Channel] = pc
	gone := sc.sweepLocked()
	sc.mu.Unlock()
	// A replaced channel may have a round in flight: its stream is closed
	// once that round lets go of it, as a swept channel's is.
	if old != nil {
		gone = append(gone, old)
	}
	for _, pc := range gone {
		pc.release()
	}

	sc.reply(req.Channel, q, req.WantState)
}

// sweepLocked drops, once the channel map has doubled since the last
// sweep, every channel whose resource the router no longer tracks
// (deleted, expired, or aged out), returning them so the caller can
// release them outside the map lock. A frame on a dropped channel answers
// 404, as it would have from the owner. Callers hold sc.mu.
func (sc *routerStreamConn) sweepLocked() []*proxyChan {
	if len(sc.chans) < sc.sweepAt {
		return nil
	}
	var gone []*proxyChan
	sc.rt.mu.RLock()
	for ch, pc := range sc.chans {
		if _, ok := sc.rt.owners[pc.id]; !ok {
			delete(sc.chans, ch)
			gone = append(gone, pc)
		}
	}
	sc.rt.mu.RUnlock()
	sc.sweepAt = max(2*len(sc.chans), chanSweepFloor)
	return gone
}

// rebind resolves the channel's resource owner through the core before a
// forward, remaking the backend-side stream when the owner moved
// (resurrection, migration, recovery) or its pooled connection died — the
// stream plane's failover re-dial. An answer's route holds the resource's
// answer lock on success, as resolve's does. Callers hold pc.mu.
func (sc *routerStreamConn) rebind(pc *proxyChan, answer bool) (route, error) {
	rt := sc.rt
	rte, err := rt.resolve(pc.id, pc.kindPath, answer)
	if err != nil {
		return rte, err
	}
	if pc.bs == nil || pc.backendName != rte.b.name || pc.bc.Err() != nil {
		if pc.bs != nil {
			pc.bs.Close()
			pc.bs = nil
		}
		bc, err := rt.streamConn(rte.b)
		if err != nil {
			rte.release()
			return route{}, fmt.Errorf("backend %s unreachable: %w", rte.b.name, err)
		}
		bs := bc.OpenStream()
		if _, err := bs.Attach(pc.id, false, rt.proxyTimeout); err != nil {
			bs.Close()
			rte.release()
			return route{}, err
		}
		pc.bc, pc.bs, pc.backendName = bc, bs, rte.b.name
	}
	return rte, nil
}

// handleRound forwards one answer or batch-answer exchange. Like the JSON
// plane's POST path it is single-shot: a transport failure mid-exchange
// leaves the answer's fate unknown (a gap in the journal), so the client
// disambiguates by re-attaching (which re-fetches the question) rather
// than the router re-sending blind. Snapshot capture rides the forward on
// the router's cadence; any other acknowledged round is journaled.
func (sc *routerStreamConn) handleRound(ch uint64, req wireproto.Message, clientWantState bool) {
	rt := sc.rt
	pc, ok := sc.channel(ch)
	if !ok {
		sc.fail(ch, http.StatusNotFound, fmt.Errorf("channel %d is not bound to a resource", ch))
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()

	rte, err := sc.rebind(pc, true)
	if err != nil {
		sc.forwardError(ch, pc.id, err)
		return
	}
	defer rte.release()

	var q *wireproto.Question
	start := time.Now()
	switch r := req.(type) {
	case *wireproto.Answer:
		fwd := *r
		fwd.WantState = clientWantState || rte.wantSnap
		q, err = pc.bs.Answer(&fwd, rt.proxyTimeout)
	case *wireproto.BatchAnswer:
		fwd := *r
		fwd.WantState = clientWantState || rte.wantSnap
		q, err = pc.bs.AnswerBatch(&fwd, rt.proxyTimeout)
	}
	sc.observe(pc.backendName, start, err)
	if err != nil {
		// The backend stream is only trustworthy after a clean exchange;
		// drop it so the next frame re-attaches.
		if !isRemote(err) {
			pc.bs.Close()
			pc.bs = nil
			rt.settle(pc.id, 0, false, false, rte.own, nil)
		}
		sc.forwardError(ch, pc.id, err)
		return
	}
	var round []byte
	if !(rte.wantSnap && sc.capture(pc.id, rte, q)) {
		round = journalBody(req)
	}
	rt.settle(pc.id, http.StatusOK, false, false, rte.own, round)
	sc.reply(ch, q, clientWantState)
}

// journalBody renders a forwarded answer frame as the JSON request body of
// the engine's answer endpoint — the form in which the journal replays it.
func journalBody(req wireproto.Message) []byte {
	var v any
	switch r := req.(type) {
	case *wireproto.Answer:
		v = server.AnswerRequest{Answer: r.Answer, Entity: r.Entity, Confirm: r.Confirm,
			Subset: r.Subset, Semantics: r.Semantics}
	case *wireproto.BatchAnswer:
		answers := make([]server.MemberAnswerRequest, len(r.Answers))
		for i, ma := range r.Answers {
			answers[i] = server.MemberAnswerRequest(ma)
		}
		v = server.BatchAnswerRequest{Answers: answers}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return body
}

// handleResultReq forwards a result fetch — idempotent, so a transport
// failure is retried once after re-resolving the owner.
func (sc *routerStreamConn) handleResultReq(req *wireproto.ResultRequest) {
	rt := sc.rt
	pc, ok := sc.channel(req.Channel)
	if !ok {
		sc.fail(req.Channel, http.StatusNotFound, fmt.Errorf("channel %d is not bound to a resource", req.Channel))
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()

	var res *wireproto.Result
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if _, err = sc.rebind(pc, false); err != nil {
			break
		}
		start := time.Now()
		res, err = pc.bs.Result(rt.proxyTimeout)
		sc.observe(pc.backendName, start, err)
		if err == nil || isRemote(err) {
			break
		}
		pc.bs.Close()
		pc.bs = nil
	}
	if err != nil {
		sc.forwardError(req.Channel, pc.id, err)
		return
	}
	res.Channel = req.Channel
	sc.write(res)
}

// observe feeds one backend exchange that started at start into the
// router's latency window, as doProxy does on the JSON plane: a reply or a
// backend error frame completes a round; a transport failure is an
// availability event (the health loop's business), not a latency sample.
func (sc *routerStreamConn) observe(backend string, start time.Time, err error) {
	if err == nil || isRemote(err) {
		sc.rt.metrics.observeRound(backend, time.Since(start))
	}
}

// capture hands a forwarded Question's inline snapshot to the core — the
// frame codec's counterpart of captureInline — reporting whether there
// was one. A single session's checkpoint records its question count.
func (sc *routerStreamConn) capture(id string, rte route, q *wireproto.Question) bool {
	if id == "" || len(q.State) == 0 {
		return false
	}
	questions := -1
	if rte.kindPath == "sessions" && len(q.Members) == 1 {
		questions = q.Members[0].Questions
	}
	sc.rt.capture(id, rte.collection, q.State, questions)
	return true
}

// reply relays a forwarded Question to the client on its channel, without
// the snapshot piggyback unless the client asked for the state itself.
func (sc *routerStreamConn) reply(ch uint64, q *wireproto.Question, clientWantState bool) {
	if !clientWantState {
		q.State = nil
	}
	q.Channel = ch
	sc.write(q)
}

// forwardError relays a failure to the client: RemoteErrors — the core's
// 404/503 answers and backend error frames — pass through with their
// status (settling the exchange, so a 404 drops the affinity entry as on
// the JSON plane); anything else becomes a 502.
func (sc *routerStreamConn) forwardError(ch uint64, id string, err error) {
	var re *wireproto.RemoteError
	if errors.As(err, &re) {
		if id != "" {
			sc.rt.settle(id, re.Status, false, false, nil, nil)
		}
		sc.write(&wireproto.Error{Channel: ch, Status: re.Status, Msg: re.Msg})
		return
	}
	sc.fail(ch, http.StatusBadGateway, err)
}

func isRemote(err error) bool {
	var re *wireproto.RemoteError
	return errors.As(err, &re)
}
