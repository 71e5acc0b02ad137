package main

// Tracing. A traced run records spans from the benchmark's own files,
// around the calls into each layer:
//
//   - the client's create, round, result and delete calls (serve.go);
//   - a middleware around the router's and every engine's HTTP handler;
//   - a net.Listener wrapper around the router's and every engine's
//     stream listener, which follows frame boundaries (u32 length, type
//     byte, uvarint channel) and times each request frame to its response;
//   - every tree.Build call and every strategy Select inside it
//     (offline.go).
//
// The router forwards only Content-Type, so no trace header reaches the
// engines. Spans of one round are linked by the resource ID — from the URL
// path, or for creates from the response body or the Question.ID field of
// the response frame — plus the ordinal of the call among that resource's
// calls of the same kind at that tier. A layer's self time is its span
// minus the part of it that its children cover.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"setdiscovery/internal/wireproto"
)

type tier uint8

const (
	tierClient tier = iota // the benchmark's client call
	tierRouter             // router handler or router stream channel
	tierEngine             // engine handler or engine stream channel
	tierBuild              // one tree.Build call
	tierSelect             // one strategy Select inside a build
)

var tierNames = [...]string{"client", "router", "engine", "build", "select"}

type plane uint8

const (
	planeNone plane = iota
	planeJSON
	planeStream
)

var planeNames = [...]string{"none", "json", "stream"}

type op uint8

const (
	opNone op = iota
	opCreate
	opRound
	opResult
	opDelete
)

var opNames = [...]string{"none", "create", "round", "result", "delete"}

// span is one timed call at one tier. Start and End are nanoseconds since
// the tracer's epoch.
type span struct {
	Tier       tier
	Plane      plane
	Op         op
	ID         string
	Start, End int64
	ReqBytes   int
	RespBytes  int
	Failed     bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in a slice allocated up front; spans beyond its
// capacity are counted, not kept, so tracing never allocates mid-run.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// writeJSONL writes every kept span as one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		rec := struct {
			Tier      string `json:"tier"`
			Plane     string `json:"plane"`
			Op        string `json:"op"`
			ID        string `json:"id"`
			StartNS   int64  `json:"start_ns"`
			EndNS     int64  `json:"end_ns"`
			ReqBytes  int    `json:"req_bytes"`
			RespBytes int    `json:"resp_bytes"`
			Failed    bool   `json:"failed,omitempty"`
		}{tierNames[s.Tier], planeNames[s.Plane], opNames[s.Op], s.ID, s.Start, s.End, s.ReqBytes, s.RespBytes, s.Failed}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// hooks is the switch the fleet's middleware and listener wrappers consult:
// nil records nothing.
type hooks struct{ cur atomic.Pointer[tracer] }

// middleware times every session or batch call served by next.
func (h *hooks) middleware(t tier, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.cur.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		o, id := classify(r.Method, r.URL.Path)
		if o == opNone {
			next.ServeHTTP(w, r)
			return
		}
		cw := &captureWriter{ResponseWriter: w, keep: id == ""}
		start := tr.now()
		next.ServeHTTP(cw, r)
		end := tr.now()
		if id == "" {
			id = idFromBody(cw.head)
		}
		tr.add(span{Tier: t, Plane: planeJSON, Op: o, ID: id, Start: start, End: end,
			ReqBytes: int(r.ContentLength), RespBytes: cw.n, Failed: cw.status >= 300})
	})
}

// classify names the resource call a request makes and the ID its path
// carries (empty for creates, whose ID is in the response).
func classify(method, path string) (op, string) {
	parts := strings.Split(strings.Trim(strings.TrimPrefix(path, "/v1"), "/"), "/")
	switch {
	case method == http.MethodPost && len(parts) == 3 && parts[0] == "collections" &&
		(parts[2] == "sessions" || parts[2] == "batches"):
		return opCreate, ""
	case len(parts) < 2 || (parts[0] != "sessions" && parts[0] != "batches"):
		return opNone, ""
	case method == http.MethodDelete && len(parts) == 2:
		return opDelete, parts[1]
	case method == http.MethodPost && len(parts) == 3 && (parts[2] == "answer" || parts[2] == "answers"):
		return opRound, parts[1]
	case method == http.MethodGet && len(parts) == 3 && (parts[2] == "result" || parts[2] == "results"):
		return opResult, parts[1]
	}
	return opNone, ""
}

// idFromBody extracts the session or batch ID from the start of a create
// response body.
func idFromBody(head []byte) string {
	for _, key := range []string{`"session_id":"`, `"batch_id":"`} {
		if i := bytes.Index(head, []byte(key)); i >= 0 {
			rest := head[i+len(key):]
			if j := bytes.IndexByte(rest, '"'); j >= 0 {
				return string(rest[:j])
			}
		}
	}
	return ""
}

// headCap bounds the bytes kept from a body or frame to find its ID.
const headCap = 96

// captureWriter counts the response bytes and keeps the first few when the
// ID must come from the body.
type captureWriter struct {
	http.ResponseWriter
	status int
	n      int
	keep   bool
	head   []byte
}

func (w *captureWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if room := headCap - len(w.head); w.keep && room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// frameListener wraps a stream-plane listener so every accepted connection
// times request frames to their responses.
type frameListener struct {
	net.Listener
	tier  tier
	hooks *hooks
}

func (l *frameListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &frameConn{
		Conn:    c,
		tier:    l.tier,
		hooks:   l.hooks,
		in:      frameParser{skip: len(wireproto.Preface)},
		pending: make(map[uint64]pendingFrame),
	}, nil
}

// pendingFrame is a request frame awaiting its response on one channel.
type pendingFrame struct {
	start int64
	op    op
	bytes int
}

// frameConn is the server side of one stream connection. Reads carry
// request frames, writes carry responses; channels are strictly
// request/response, so a channel's next response answers its last request.
type frameConn struct {
	net.Conn
	tier  tier
	hooks *hooks

	in frameParser // only the server's read loop reads

	mu      sync.Mutex // responses are written from many goroutines
	out     frameParser
	pending map[uint64]pendingFrame
}

func (c *frameConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		tr := c.hooks.cur.Load()
		var now int64
		if tr != nil {
			now = tr.now()
		}
		c.in.feed(p[:n], func(f frameInfo) {
			if tr == nil {
				return
			}
			c.mu.Lock()
			c.pending[f.channel] = pendingFrame{start: now, op: requestOp(f.typ), bytes: f.size}
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *frameConn) Write(p []byte) (int, error) {
	tr := c.hooks.cur.Load()
	var now int64
	if tr != nil {
		now = tr.now()
	}
	c.mu.Lock()
	c.out.feed(p, func(f frameInfo) {
		req, ok := c.pending[f.channel]
		if !ok {
			return
		}
		delete(c.pending, f.channel)
		if tr != nil {
			tr.add(span{Tier: c.tier, Plane: planeStream, Op: req.op, ID: f.id, Start: req.start, End: now,
				ReqBytes: req.bytes, RespBytes: f.size, Failed: f.typ == wireproto.TypeError})
		}
	})
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func requestOp(t wireproto.FrameType) op {
	switch t {
	case wireproto.TypeCreate:
		return opCreate
	case wireproto.TypeAnswer, wireproto.TypeBatchAnswer:
		return opRound
	case wireproto.TypeResult:
		return opResult
	}
	return opNone
}

// frameInfo describes one complete frame: its type, channel, total size on
// the wire, and for question and result frames the resource ID.
type frameInfo struct {
	typ     wireproto.FrameType
	channel uint64
	size    int
	id      string
}

// frameParser follows the frame boundaries of one direction of a stream
// connection: a u32be body length, then the body, whose first bytes are the
// type and the uvarint channel. Question and result payloads start with a
// flags byte and the uvarint-length-prefixed resource ID.
type frameParser struct {
	skip   int // preface bytes still to pass over
	hdr    [4]byte
	hn     int
	remain int // body bytes of the current frame still to come
	size   int
	head   []byte
}

func (p *frameParser) feed(b []byte, done func(frameInfo)) {
	for len(b) > 0 {
		switch {
		case p.skip > 0:
			n := min(p.skip, len(b))
			p.skip -= n
			b = b[n:]
		case p.remain == 0:
			n := copy(p.hdr[p.hn:], b)
			p.hn += n
			b = b[n:]
			if p.hn == len(p.hdr) {
				p.hn = 0
				p.size = int(binary.BigEndian.Uint32(p.hdr[:]))
				p.remain = p.size
				p.head = p.head[:0]
			}
		default:
			n := min(p.remain, len(b))
			if room := headCap - len(p.head); room > 0 {
				p.head = append(p.head, b[:min(room, n)]...)
			}
			p.remain -= n
			b = b[n:]
			if p.remain == 0 {
				done(p.info())
			}
		}
	}
}

func (p *frameParser) info() frameInfo {
	f := frameInfo{size: len(p.hdr) + p.size}
	if len(p.head) == 0 {
		return f
	}
	f.typ = wireproto.FrameType(p.head[0])
	ch, n := binary.Uvarint(p.head[1:])
	if n <= 0 {
		return f
	}
	f.channel = ch
	if f.typ != wireproto.TypeQuestion && f.typ != wireproto.TypeResult {
		return f
	}
	rest := p.head[1+n:]
	if len(rest) < 2 {
		return f
	}
	l, k := binary.Uvarint(rest[1:])
	if k > 0 && 1+k+int(l) <= len(rest) {
		f.id = string(rest[1+k : 1+k+int(l)])
	}
	return f
}

// selfTime is the parent's duration minus the part of it that the children
// cover; overlapping children count once.
func selfTime(parent span, children ...span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	covered := int64(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.s <= cur.e:
			cur.e = max(cur.e, v.e)
		default:
			covered += cur.e - cur.s
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.e - cur.s
	}
	return parent.dur() - covered
}

// chain is one client call with the router and engine spans of the same
// call: same resource, same kind of call, same ordinal.
type chain struct {
	client, router, engine *span
}

// linkCalls links every client span of kind o to the router and engine
// spans of the same call.
func linkCalls(spans []span, o op) []chain {
	type key struct {
		tier tier
		id   string
	}
	byKey := make(map[key][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Op == o && s.ID != "" && s.Tier <= tierEngine {
			k := key{s.Tier, s.ID}
			byKey[k] = append(byKey[k], s)
		}
	}
	for _, list := range byKey {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	var out []chain
	for k, clients := range byKey {
		if k.tier != tierClient {
			continue
		}
		routers, engines := byKey[key{tierRouter, k.id}], byKey[key{tierEngine, k.id}]
		for i, c := range clients {
			ch := chain{client: c}
			if i < len(routers) {
				ch.router = routers[i]
			}
			if i < len(engines) {
				ch.engine = engines[i]
			}
			out = append(out, ch)
		}
	}
	return out
}

// roundBudget is the per-round time and byte budget of a traced serving
// phase, as means over the rounds whose three tiers were all linked.
type roundBudget struct {
	clientRounds    int
	linked          int
	stream          bool    // the rounds crossed the stream plane
	roundUS         float64 // client round span
	clientSelfUS    float64 // client span − router span: harness codec plus loopback
	routerSelfUS    float64 // router span − engine span
	engineUS        float64 // engine span, selection included
	routerReqBytes  float64 // request bytes the router receives
	routerRespBytes float64 // response bytes the client receives
	engineRespBytes float64 // response bytes the engine sends the router
}

func budgetOf(spans []span) roundBudget {
	var b roundBudget
	for _, ch := range linkCalls(spans, opRound) {
		b.clientRounds++
		if ch.router == nil || ch.engine == nil || ch.client.Failed {
			continue
		}
		b.linked++
		b.stream = ch.router.Plane == planeStream
		b.roundUS += float64(ch.client.dur())
		b.clientSelfUS += float64(selfTime(*ch.client, *ch.router))
		b.routerSelfUS += float64(selfTime(*ch.router, *ch.engine))
		b.engineUS += float64(ch.engine.dur())
		b.routerReqBytes += float64(ch.router.ReqBytes)
		b.routerRespBytes += float64(ch.router.RespBytes)
		b.engineRespBytes += float64(ch.engine.RespBytes)
	}
	if b.linked > 0 {
		n := float64(b.linked)
		b.roundUS /= n * 1e3
		b.clientSelfUS /= n * 1e3
		b.routerSelfUS /= n * 1e3
		b.engineUS /= n * 1e3
		b.routerReqBytes /= n
		b.routerRespBytes /= n
		b.engineRespBytes /= n
	}
	return b
}
