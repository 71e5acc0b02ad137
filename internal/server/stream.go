package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"setdiscovery/internal/wireproto"
)

// The binary stream plane. ServeStream speaks internal/wireproto over a
// net.Listener beside the /v1 HTTP handler: same store, same resource
// model, same error vocabulary (Error frames carry the HTTP status the
// JSON plane would answer), so a session is freely shared between planes —
// created over the stream, answered over HTTP, or vice versa. The frame
// handlers below are a codec over the request cores in resource.go: they
// decode a frame, call create or answerRound — the same calls the JSON
// handlers make — and encode the answer from the same member rows. That is
// what makes the two planes byte-identical by construction rather than by
// parallel maintenance.

// streamFrameWorkers bounds concurrently-processed frames per connection,
// so a hostile client pipelining thousands of frames cannot spawn
// unbounded goroutines. Well-behaved clients are synchronous per channel
// and never feel the bound.
const streamFrameWorkers = 256

// boundSweepFloor is the smallest channel map a sweep runs on. Clients do
// not tell the engine when they are done with a channel, and a router's
// pooled connection lives as long as the backend, so a connection would
// keep every channel it ever bound; each time the map has doubled since
// the last sweep (and holds at least this many), the channels whose
// resource is gone from the store are dropped — amortised O(1) per bind.
const boundSweepFloor = 64

// ServeStream accepts stream-plane connections on l until it is closed,
// then returns nil. Each connection may multiplex any number of concurrent
// sessions and batches.
func (s *Server) ServeStream(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveStreamConn(conn)
	}
}

// streamConn is one accepted stream-plane connection.
type streamConn struct {
	s    *Server
	conn net.Conn

	wmu sync.Mutex // serializes response frame writes

	mu      sync.Mutex
	bound   map[uint64]string // channel → resource ID
	sweepAt int               // bound size that triggers the next sweep of gone resources
}

func (s *Server) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	if err := wireproto.ReadPreface(conn); err != nil {
		s.logf("server: stream preface from %s: %v", conn.RemoteAddr(), err)
		return
	}
	s.newStreamConn(conn).serve()
}

func (s *Server) newStreamConn(conn net.Conn) *streamConn {
	return &streamConn{s: s, conn: conn, bound: make(map[uint64]string), sweepAt: boundSweepFloor}
}

// serve handles the connection's frames, past the preface, until the peer
// hangs up.
func (sc *streamConn) serve() {
	s, conn := sc.s, sc.conn
	br := bufio.NewReader(conn)
	sem := make(chan struct{}, streamFrameWorkers)
	var wg sync.WaitGroup
	for {
		m, err := wireproto.ReadFrame(br)
		if err != nil {
			// A malformed frame poisons the stream (framing is lost);
			// transport errors and client hangups end it quietly.
			if errors.Is(err, wireproto.ErrBadFrame) {
				s.logf("server: stream from %s: %v", conn.RemoteAddr(), err)
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

// write encodes and sends one response frame; write errors just drop the
// response (the read loop will observe the dead connection).
func (sc *streamConn) write(m wireproto.Message) {
	buf, err := wireproto.AppendFrame(nil, m)
	if err != nil {
		sc.s.logf("server: stream response encode: %v", err)
		return
	}
	sc.wmu.Lock()
	_, err = sc.conn.Write(buf)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
}

func (sc *streamConn) fail(ch uint64, status int, err error) {
	if status >= 500 {
		sc.s.logf("server: stream: %v", err)
	}
	sc.write(&wireproto.Error{Channel: ch, Status: status, Msg: err.Error()})
}

func (sc *streamConn) handle(m wireproto.Message) {
	switch req := m.(type) {
	case *wireproto.Create:
		sc.handleCreate(req)
	case *wireproto.Answer:
		answer := MemberAnswerRequest{Answer: req.Answer, Entity: req.Entity, Confirm: req.Confirm,
			Subset: req.Subset, Semantics: req.Semantics}
		sc.handleAnswer(req.Channel, KindSession, []MemberAnswerRequest{answer}, req.WantState)
	case *wireproto.BatchAnswer:
		answers := make([]MemberAnswerRequest, len(req.Answers))
		for i, ma := range req.Answers {
			answers[i] = MemberAnswerRequest(ma)
		}
		sc.handleAnswer(req.Channel, KindBatch, answers, req.WantState)
	case *wireproto.ResultRequest:
		sc.handleResult(req)
	default:
		sc.fail(m.ChannelID(), http.StatusBadRequest,
			fmt.Errorf("unexpected client frame type %d", m.Type()))
	}
}

// resource resolves the channel's bound resource, failing the frame with a
// 404 when the channel was never bound or the resource expired. Every call
// goes through the store so the TTL slides exactly as on the HTTP plane.
func (sc *streamConn) resource(ch uint64) (string, *Stored, bool) {
	sc.mu.Lock()
	id, ok := sc.bound[ch]
	sc.mu.Unlock()
	if !ok {
		sc.fail(ch, http.StatusNotFound, fmt.Errorf("channel %d is not bound to a resource", ch))
		return "", nil, false
	}
	st, ok := sc.s.store.Get(id)
	if !ok {
		sc.fail(ch, http.StatusNotFound, errors.New("unknown or expired resource"))
		return "", nil, false
	}
	return id, st, true
}

// bind records the channel's resource and, once the map has doubled since
// the last sweep, drops every channel whose resource is gone from the
// store. A frame on a dropped channel answers 404, as its resource would.
func (sc *streamConn) bind(ch uint64, id string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.bound[ch] = id
	if len(sc.bound) < sc.sweepAt {
		return
	}
	for ch, id := range sc.bound {
		if !sc.s.store.has(id) {
			delete(sc.bound, ch)
		}
	}
	sc.sweepAt = max(2*len(sc.bound), boundSweepFloor)
}

// wireConfig maps the frame-level engine configuration to the JSON plane's.
func wireConfig(cfg wireproto.SessionConfig) SessionConfig {
	return SessionConfig{
		Strategy:         cfg.Strategy,
		K:                cfg.K,
		Q:                cfg.Q,
		Metric:           cfg.Metric,
		MaxQuestions:     cfg.MaxQuestions,
		BatchSize:        cfg.BatchSize,
		Backtrack:        cfg.Backtrack,
		GroupStrategy:    cfg.GroupStrategy,
		GroupConstraints: cfg.GroupConstraints,
	}
}

func (sc *streamConn) handleCreate(req *wireproto.Create) {
	id := req.AttachID
	var st *Stored
	if id != "" {
		var ok bool
		if st, ok = sc.s.store.Get(id); !ok {
			sc.fail(req.Channel, http.StatusNotFound, errors.New("unknown or expired resource"))
			return
		}
	} else {
		var status int
		var err error
		id, st, status, err = sc.s.create(req.Collection, func() (createSpec, error) {
			return createSpec{batch: req.Batch, tree: req.Tree, seeds: req.Seeds, cfg: wireConfig(req.Config)}, nil
		})
		if err != nil {
			sc.fail(req.Channel, status, err)
			return
		}
	}
	sc.bind(req.Channel, id)
	st.Mu.Lock()
	q := sc.question(req.Channel, id, st, nil, req.WantState)
	st.Mu.Unlock()
	sc.write(q)
}

// handleAnswer runs an Answer frame (kind session) or a BatchAnswer frame
// (kind batch) through the answer core and replies with the Question frame
// rendered in the round's critical section.
func (sc *streamConn) handleAnswer(ch uint64, kind string, answers []MemberAnswerRequest, wantState bool) {
	id, st, ok := sc.resource(ch)
	if !ok {
		return
	}
	if st.Kind() != kind {
		sc.fail(ch, http.StatusNotFound, fmt.Errorf("unknown or expired %s", kind))
		return
	}
	var q *wireproto.Question
	status, err := answerRound(st, answers, func(memberErrs map[int]string) {
		q = sc.question(ch, id, st, memberErrs, wantState)
	})
	if err != nil {
		sc.fail(ch, status, err)
		return
	}
	sc.write(q)
}

func (sc *streamConn) handleResult(req *wireproto.ResultRequest) {
	id, st, ok := sc.resource(req.Channel)
	if !ok {
		return
	}
	st.Mu.Lock()
	resp := &wireproto.Result{Channel: req.Channel, ID: id, Done: st.Done()}
	for i := 0; i < st.Members(); i++ {
		row := memberResult(st, i)
		resp.Members = append(resp.Members, wireproto.MemberResult{
			Member:          row.Member,
			Done:            row.Done,
			Target:          row.Target,
			Candidates:      row.Candidates,
			Questions:       row.Questions,
			Interactions:    row.Interactions,
			Backtracks:      row.Backtracks,
			SelectionTimeUS: row.SelectionTimeUS,
			Error:           row.Error,
		})
	}
	st.Mu.Unlock()
	sc.write(resp)
}

// question renders the resource's pending interaction as a Question frame —
// the response to create, attach, answer and batch-answer frames — from the
// same member rows as the JSON responses, with the inline snapshot when the
// frame asked for it. Callers hold the resource lock.
func (sc *streamConn) question(ch uint64, id string, st *Stored, memberErrs map[int]string, wantState bool) *wireproto.Question {
	q := &wireproto.Question{Channel: ch, ID: id, Done: st.Done()}
	for i := 0; i < st.Members(); i++ {
		q.Members = append(q.Members, wireproto.MemberQuestion(memberQuestion(st, i, memberErrs[i])))
	}
	q.State = sc.s.inlineState(wantState, id, st)
	return q
}
