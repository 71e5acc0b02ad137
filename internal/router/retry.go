package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The router→engine retry/timeout policy. Every proxied call runs under a
// per-attempt context so one hung engine can never pin a client for the
// HTTP client's whole timeout (the pre-PR-8 paths shared one 30s client
// with no per-request deadline). Idempotent requests — question/result/
// state/stats GETs, health probes, migration PUTs re-sending the same
// snapshot — are retried with capped exponential backoff plus jitter,
// re-resolving their target each attempt so a mid-retry resurrection or
// recovery redirects the next attempt to the new owner (the failover
// path). Non-idempotent requests (answers, creates) stay single-shot: a
// lost response leaves the router unable to know whether the answer was
// applied, so the client must disambiguate via the question-assertion
// retry guard instead. When no live backend exists the router degrades
// gracefully: a structured 503 carrying Retry-After, sized to the health
// loop's detection bound, so well-behaved clients back off instead of
// hammering.

// DefaultProxyTimeout bounds one proxied attempt on the interactive paths
// (create/answer/question/result). Selection on large collections is the
// slow case; it is still far below the old shared 30s client timeout.
const DefaultProxyTimeout = 10 * time.Second

// opTimeout bounds one attempt of the router's internal operations —
// migration export/import, cache-shard warming, collection listing — which
// move whole serialized sessions and so get more headroom than an
// interactive round-trip.
const opTimeout = 30 * time.Second

// WithProxyTimeout sets the per-attempt deadline for proxied client
// requests (default DefaultProxyTimeout).
func WithProxyTimeout(d time.Duration) Option {
	return func(rt *Router) { rt.proxyTimeout = d }
}

// The idempotent-request retry policy: three attempts with 50ms/100ms
// backoff (the base doubled per retry, capped at backoffCap) ride out a
// restarting engine without stretching a failed GET past a second.
const (
	retryAttempts = 3
	retryBase     = 50 * time.Millisecond
	backoffCap    = 2 * time.Second
)

// jitterMu guards the shared backoff jitter source (math/rand's global
// source locks too; a local one keeps the dependency explicit).
var (
	jitterMu  sync.Mutex
	jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// backoffDelay computes the capped exponential backoff for retry number n
// (0-based), with up to 50% added jitter so a fleet of routers retrying the
// same dead engine does not stampede in lockstep.
func backoffDelay(n int) time.Duration {
	d := retryBase << uint(n)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	jitterMu.Lock()
	j := time.Duration(jitterRNG.Int63n(int64(d)/2 + 1))
	jitterMu.Unlock()
	return d + j
}

// errNoLiveBackend reports that a request had no backend to go to; the
// handlers map it to 503 + Retry-After.
var errNoLiveBackend = errors.New("no live backend")

// retryableStatus reports whether an idempotent request should be retried
// on this backend status: gateway-class failures that a moment of backoff
// (or a failover re-resolution) can fix.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// doProxy performs one proxied attempt against b under a per-attempt
// deadline derived from the client's own context.
func (rt *Router) doProxy(ctx context.Context, method string, b *backend, path, rawQuery, contentType string, body []byte, timeout time.Duration) (int, []byte, error) {
	target := b.base.JoinPath(path)
	target.RawQuery = rawQuery
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, target.String(), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("backend %s unreachable: %w", b.name, err)
	}
	defer resp.Body.Close()
	respBody, err := readAllBounded(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("backend %s: reading response: %w", b.name, err)
	}
	// Only completed rounds feed the latency window: a failed dial or a
	// truncated body is an availability event (the health loop's business),
	// not a latency sample.
	rt.metrics.observeRound(b.name, time.Since(start))
	return resp.StatusCode, respBody, nil
}

// proxyRetry runs an idempotent request through the retry policy. resolve
// is called before every attempt so failover (resurrection, recovery,
// ring changes) between attempts redirects the request; it returns nil
// when no backend is currently eligible, which only fails the call once
// every attempt is exhausted.
func (rt *Router) proxyRetry(ctx context.Context, method string, resolve func() *backend, path, rawQuery, contentType string, body []byte, timeout time.Duration) (int, []byte, error) {
	var (
		lastErr    error
		lastStatus int
		lastBody   []byte
	)
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			case <-time.After(backoffDelay(attempt - 1)):
			}
		}
		b := resolve()
		if b == nil {
			lastErr = errNoLiveBackend
			continue
		}
		status, respBody, err := rt.doProxy(ctx, method, b, path, rawQuery, contentType, body, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(status) {
			lastErr = nil
			lastStatus, lastBody = status, respBody
			continue
		}
		return status, respBody, nil
	}
	if lastErr != nil {
		return 0, nil, lastErr
	}
	// Every attempt answered a retryable status: surface the last one
	// rather than inventing an error.
	return lastStatus, lastBody, nil
}

// writeUnavailable answers a structured 503 with a Retry-After sized to the
// health loop's detection bound — the degrade-gracefully shape clients see
// when no backend can take their request right now.
func (rt *Router) writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterSeconds()))
	rt.writeError(w, http.StatusServiceUnavailable, err)
}

// retryAfterSeconds is the advice given with 503s: roughly one health-probe
// interval, the soonest the fleet's shape can have changed.
func (rt *Router) retryAfterSeconds() int {
	s := int(rt.health.Interval / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
