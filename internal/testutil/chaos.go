package testutil

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"
)

// ChaosMode selects how the proxy mistreats a request.
type ChaosMode int

const (
	// ChaosPass forwards the request unchanged.
	ChaosPass ChaosMode = iota
	// ChaosBlackhole holds the request open without answering until the
	// client gives up (its context/deadline fires) or the proxy closes —
	// a network partition or a hung engine.
	ChaosBlackhole
	// ChaosError500 answers 500 without touching the backend — an engine
	// in a crash loop behind a load balancer.
	ChaosError500
	// ChaosReset hijacks and closes the TCP connection without writing a
	// response — a SIGKILLed engine's kernel resetting its sockets.
	ChaosReset
	// ChaosDelay forwards the request after the configured delay — a
	// saturated engine answering slowly.
	ChaosDelay
	// ChaosResetAfter forwards the request, drops the backend's reply and
	// resets the connection — a reply lost after the engine applied the
	// request.
	ChaosResetAfter
)

// ChaosProxy is an httptest-based fault-injection reverse proxy for one
// backend: the E2E chaos suites put one in front of each engine and flip
// its mode to black-hole, delay, 500, or connection-reset traffic on
// demand, or to apply a request and lose its reply. Faults can be applied
// globally (SetMode) or for the next N requests only (FailNext), and
// restricted to matching paths (SetPathFilter) so e.g. health probes can be
// failed while data traffic flows.
//
// All methods are safe for concurrent use. The proxy counts every request
// it receives (Requests), faulted or not, so retry policies can be pinned
// to an exact attempt count.
type ChaosProxy struct {
	ts     *httptest.Server
	target *url.URL
	client *http.Client

	mu       sync.Mutex
	mode     ChaosMode
	delay    time.Duration
	failN    int       // remaining FailNext requests; 0 = use mode
	failMode ChaosMode // mode applied while failN > 0
	filter   func(path string) bool
	requests int
	closed   chan struct{}
}

// NewChaosProxy starts a chaos proxy in front of targetURL. The proxy (and
// its idle connections) is torn down with Close; callers typically defer it.
func NewChaosProxy(targetURL string) (*ChaosProxy, error) {
	u, err := url.Parse(targetURL)
	if err != nil {
		return nil, err
	}
	p := &ChaosProxy{
		target: u,
		// A dedicated transport: the proxy must not share the default
		// client's connection pool with the code under test, and must not
		// impose its own timeout on top of the caller's.
		client: &http.Client{Transport: &http.Transport{}},
		closed: make(chan struct{}),
	}
	p.ts = httptest.NewServer(http.HandlerFunc(p.serve))
	return p, nil
}

// URL returns the proxy's front address — what the router should be pointed
// at instead of the engine.
func (p *ChaosProxy) URL() string { return p.ts.URL }

// Close shuts the proxy down, releasing any black-holed requests.
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	p.mu.Unlock()
	p.ts.Close()
}

// SetMode switches the fault applied to every matching request until the
// next SetMode. ChaosDelay uses the duration given to SetDelay (default
// 100ms).
func (p *ChaosProxy) SetMode(m ChaosMode) {
	p.mu.Lock()
	p.mode = m
	p.failN = 0
	p.mu.Unlock()
}

// SetDelay configures the ChaosDelay duration.
func (p *ChaosProxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// FailNext applies mode to the next n matching requests, then reverts to
// the standing mode — transient faults for retry tests.
func (p *ChaosProxy) FailNext(n int, mode ChaosMode) {
	p.mu.Lock()
	p.failN = n
	p.failMode = mode
	p.mu.Unlock()
}

// SetPathFilter restricts faults to request paths accepted by f (nil, the
// default, faults everything). Non-matching requests always pass through.
func (p *ChaosProxy) SetPathFilter(f func(path string) bool) {
	p.mu.Lock()
	p.filter = f
	p.mu.Unlock()
}

// Requests returns how many requests the proxy has received.
func (p *ChaosProxy) Requests() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests
}

// pick counts the request and resolves the mode to apply to it.
func (p *ChaosProxy) pick(path string) (ChaosMode, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if p.filter != nil && !p.filter(path) {
		return ChaosPass, 0
	}
	mode := p.mode
	if p.failN > 0 {
		p.failN--
		mode = p.failMode
	}
	delay := p.delay
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	return mode, delay
}

func (p *ChaosProxy) serve(w http.ResponseWriter, r *http.Request) {
	mode, delay := p.pick(r.URL.Path)
	switch mode {
	case ChaosBlackhole:
		select {
		case <-r.Context().Done():
		case <-p.closed:
		}
		return
	case ChaosError500:
		http.Error(w, `{"error":"chaos: injected failure"}`, http.StatusInternalServerError)
		return
	case ChaosReset:
		reset(w)
		return
	case ChaosResetAfter:
		if resp, err := p.roundTrip(r); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		reset(w)
		return
	case ChaosDelay:
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		case <-p.closed:
			return
		}
	}
	p.forward(w, r)
}

// reset hijacks and closes the client's connection without a response.
func reset(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// No hijack support: the closest observable fault is an empty 500.
	w.WriteHeader(http.StatusInternalServerError)
}

// roundTrip replays the request against the target.
func (p *ChaosProxy) roundTrip(r *http.Request) (*http.Response, error) {
	target := *p.target
	target.Path = r.URL.Path
	target.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), r.Body)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return p.client.Do(req)
}

// forward replays the request against the target and copies the response
// back verbatim.
func (p *ChaosProxy) forward(w http.ResponseWriter, r *http.Request) {
	resp, err := p.roundTrip(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
