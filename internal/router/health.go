package router

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Active health checking: the router probes every backend's /v1/healthz on
// a jittered interval and runs each backend through a small state machine,
//
//	healthy → suspect → dead → recovering → healthy
//
// with consecutive-failure and consecutive-success thresholds so a single
// slow or dropped probe can never trigger a drain storm (flap damping).
// A backend is only declared dead after FailThreshold consecutive probe
// failures — the detection bound is therefore
//
//	FailThreshold × Interval + Timeout
//
// of wall clock from the crash. Declaring a backend dead removes it from
// the placement ring and resurrects its tracked sessions onto survivors
// from their last-known snapshots (see resurrect.go). A dead backend keeps
// being probed; once it answers RecoverThreshold consecutive probes it
// rejoins the ring and the normal rebalancing migration moves its share of
// the keyspace back. Backends that flap — die again shortly after
// recovering — must pass a doubled (then quadrupled, …) success streak per
// recent death before each readmission, so an engine stuck in a crash loop
// settles out of the ring instead of bouncing sessions back and forth.

// healthState is one backend's position in the probe state machine.
type healthState int

const (
	stateHealthy healthState = iota
	stateSuspect
	stateDead
	stateRecovering
)

func (s healthState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	case stateDead:
		return "dead"
	case stateRecovering:
		return "recovering"
	}
	return fmt.Sprintf("healthState(%d)", int(s))
}

// HealthConfig tunes the probe loop; zero fields take the defaults.
type HealthConfig struct {
	// Interval is the time between probe rounds (default 5s); each round's
	// start is jittered by ±20% so a fleet of routers does not probe in
	// lockstep.
	Interval time.Duration
	// Timeout bounds one probe (default 2s).
	Timeout time.Duration
	// FailThreshold is how many consecutive probe failures declare a
	// backend dead (default 3). Failures below it leave the backend
	// suspect but still serving — the flap damping that keeps one slow
	// probe from draining an engine.
	FailThreshold int
	// RecoverThreshold is how many consecutive probe successes readmit a
	// dead backend (default 2). Each death within flapWindow of the last
	// doubles the requirement (capped at 16×), so a crash-looping engine
	// has to hold a real streak before it gets sessions back.
	RecoverThreshold int
}

// Health defaults.
const (
	DefaultHealthInterval   = 5 * time.Second
	DefaultHealthTimeout    = 2 * time.Second
	DefaultFailThreshold    = 3
	DefaultRecoverThreshold = 2
	flapWindow              = 10 * time.Minute // how recent a previous death must be to count the next as a flap
	maxFlapPenalty          = 4                // recovery requirement multiplier cap: 2^4
)

// withDefaults fills zero fields.
func (hc HealthConfig) withDefaults() HealthConfig {
	if hc.Interval <= 0 {
		hc.Interval = DefaultHealthInterval
	}
	if hc.Timeout <= 0 {
		hc.Timeout = DefaultHealthTimeout
	}
	if hc.FailThreshold < 1 {
		hc.FailThreshold = DefaultFailThreshold
	}
	if hc.RecoverThreshold < 1 {
		hc.RecoverThreshold = DefaultRecoverThreshold
	}
	return hc
}

// WithHealth configures the health-check loop's thresholds and cadence.
// The loop itself runs only once StartHealth is called; CheckHealthNow
// runs single probe rounds synchronously (the E2E suites drive it so
// detection timing is deterministic).
func WithHealth(hc HealthConfig) Option {
	return func(rt *Router) { rt.health = hc.withDefaults() }
}

// StartHealth runs the probe loop until ctx is cancelled. Each round
// probes all backends concurrently, applies the state machine, and
// performs any resurrection/readmission work that falls out of it.
func (rt *Router) StartHealth(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(jitteredInterval(rt.health.Interval)):
			}
			rt.CheckHealthNow(ctx)
		}
	}()
}

// jitteredInterval spreads probe rounds across ±20% of the interval.
func jitteredInterval(d time.Duration) time.Duration {
	jitterMu.Lock()
	f := 0.8 + 0.4*jitterRNG.Float64()
	jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// probeResult is one backend's probe outcome for a round.
type probeResult struct {
	b  *backend
	ok bool
}

// CheckHealthNow runs one synchronous probe round: probe every backend,
// apply the state machine, resurrect the sessions of any backend declared
// dead this round, and rebalance onto any backend readmitted this round.
// The daemon's StartHealth loop calls it on its interval; tests call it
// directly to step detection deterministically.
func (rt *Router) CheckHealthNow(ctx context.Context) {
	rt.mu.RLock()
	targets := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		targets = append(targets, b)
	}
	rt.mu.RUnlock()
	if len(targets) == 0 {
		return
	}

	results := make([]probeResult, len(targets))
	var wg sync.WaitGroup
	for i, b := range targets {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			results[i] = probeResult{b: b, ok: rt.probe(ctx, b)}
		}(i, b)
	}
	wg.Wait()

	died, recovered := rt.applyProbeResults(results)
	for _, b := range died {
		// Condemned link discipline: no stream frame is ever forwarded to a
		// backend the prober declared dead. The pool re-dials lazily once
		// the backend recovers (stream.go).
		rt.pool(b).closeAll()
		rt.resurrectFrom(ctx, b)
	}
	if len(recovered) > 0 {
		// Readmitted backends take their ring share back through the
		// normal live-migration path (sources are alive).
		rt.mu.Lock()
		moves := rt.misplacedLocked()
		rt.mu.Unlock()
		rt.migrateAll(moves)
	}
}

// probe asks one backend's /v1/healthz under the probe timeout.
func (rt *Router) probe(ctx context.Context, b *backend) bool {
	pctx, cancel := context.WithTimeout(ctx, rt.health.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.base.JoinPath("v1", "healthz").String(), nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// applyProbeResults advances every backend's state machine under the lock,
// returning the backends that transitioned to dead and to healthy this
// round. Ring membership changes (dead leaves, recovered rejoins) are
// applied here; the session-movement consequences run in the caller,
// outside the lock.
func (rt *Router) applyProbeResults(results []probeResult) (died, recovered []*backend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.now()
	ringDirty := false
	for _, pr := range results {
		b := pr.b
		if _, still := rt.backends[b.name]; !still || rt.backends[b.name] != b {
			continue // removed while the probe was in flight
		}
		if pr.ok {
			switch b.state {
			case stateSuspect:
				rt.logf("router: backend %s recovered from suspect (%d/%d failures)", b.name, b.fails, rt.health.FailThreshold)
				b.state = stateHealthy
				b.fails = 0
			case stateDead:
				b.state = stateRecovering
				b.successes = 1
				if b.successes >= rt.requiredRecoveriesLocked(b, now) {
					rt.readmitLocked(b, now)
					recovered = append(recovered, b)
					ringDirty = true
				}
			case stateRecovering:
				b.successes++
				if b.successes >= rt.requiredRecoveriesLocked(b, now) {
					rt.readmitLocked(b, now)
					recovered = append(recovered, b)
					ringDirty = true
				}
			default:
				b.fails = 0
			}
			continue
		}
		switch b.state {
		case stateHealthy:
			b.state = stateSuspect
			b.fails = 1
			rt.logf("router: backend %s suspect (1/%d failures)", b.name, rt.health.FailThreshold)
		case stateSuspect:
			b.fails++
			if b.fails >= rt.health.FailThreshold {
				rt.declareDeadLocked(b, now)
				died = append(died, b)
				ringDirty = true
			}
		case stateRecovering:
			// A failure during recovery restarts the streak.
			b.state = stateDead
			b.successes = 0
		}
	}
	if ringDirty {
		rt.rebuildRingLocked()
	}
	return died, recovered
}

// declareDeadLocked transitions a backend to dead, recording the death for
// flap accounting.
func (rt *Router) declareDeadLocked(b *backend, now time.Time) {
	b.state = stateDead
	b.successes = 0
	if !b.lastDeath.IsZero() && now.Sub(b.lastDeath) <= flapWindow {
		if b.flaps < maxFlapPenalty {
			b.flaps++
		}
	} else {
		b.flaps = 0
	}
	b.lastDeath = now
	rt.logf("router: backend %s declared dead after %d consecutive probe failures", b.name, b.fails)
}

// requiredRecoveriesLocked is the success streak a dead backend owes before
// readmission: the base threshold, doubled per recent flap.
func (rt *Router) requiredRecoveriesLocked(b *backend, now time.Time) int {
	n := rt.health.RecoverThreshold
	flaps := b.flaps
	if flaps > 0 && now.Sub(b.lastDeath) > flapWindow {
		flaps = 0 // the penalty decays once the backend stays up a window
	}
	return n << uint(flaps)
}

// readmitLocked returns a recovered backend to service.
func (rt *Router) readmitLocked(b *backend, now time.Time) {
	rt.logf("router: backend %s recovered after %d consecutive probe successes (owed %d)",
		b.name, b.successes, rt.requiredRecoveriesLocked(b, now))
	b.state = stateHealthy
	b.fails = 0
	b.successes = 0
}

// healthStateOf reports a backend's current state (for stats and tests).
func (rt *Router) healthStateOf(name string) (healthState, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	b, ok := rt.backends[name]
	if !ok {
		return 0, false
	}
	return b.state, true
}
