package router

import (
	"context"
	"testing"
	"time"

	"setdiscovery/internal/testutil"
)

// healthFleet is one engine behind a chaos proxy and a healthy peer, with
// the router's clock injected so flap-window arithmetic is deterministic.
type healthFleet struct {
	flaky  *testutil.ChaosProxy
	rt     *Router
	now    time.Time
	target string
}

func newHealthFleet(t *testing.T, opts ...Option) *healthFleet {
	t.Helper()
	f := &healthFleet{now: time.Unix(1_700_000_000, 0), target: "flaky"}
	p, err := testutil.NewChaosProxy(newEngine(t).ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	f.flaky = p
	f.rt = New(append([]Option{WithLogf(t.Logf)}, opts...)...)
	f.rt.now = func() time.Time { return f.now }
	if err := f.rt.AddBackend(f.target, p.URL()); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.AddBackend("steady", newEngine(t).ts.URL); err != nil {
		t.Fatal(err)
	}
	return f
}

// round advances the injected clock by one probe interval and runs one
// synchronous probe round.
func (f *healthFleet) round() {
	f.now = f.now.Add(f.rt.health.Interval)
	f.rt.CheckHealthNow(context.Background())
}

func (f *healthFleet) state(t *testing.T) healthState {
	t.Helper()
	st, ok := f.rt.healthStateOf(f.target)
	if !ok {
		t.Fatalf("backend %s not tracked", f.target)
	}
	return st
}

// inRing reports whether the flaky backend still takes placements.
func (f *healthFleet) inRing() bool {
	f.rt.mu.RLock()
	defer f.rt.mu.RUnlock()
	for _, p := range f.rt.ring {
		if p.b.name == f.target {
			return true
		}
	}
	return false
}

// TestFlapDampingOscillation pins the damping half of the state machine: a
// backend that keeps failing probes but never crosses FailThreshold
// consecutively — fail, fail, recover, repeat — is never declared dead and
// never leaves the ring, no matter how long the oscillation runs.
func TestFlapDampingOscillation(t *testing.T) {
	f := newHealthFleet(t)
	below := f.rt.health.FailThreshold - 1
	for cycle := 0; cycle < 8; cycle++ {
		f.flaky.FailNext(below, testutil.ChaosError500)
		for i := 0; i < below; i++ {
			f.round()
			if st := f.state(t); st == stateDead {
				t.Fatalf("cycle %d, failure %d: oscillating backend declared dead", cycle, i+1)
			}
			if !f.inRing() {
				t.Fatalf("cycle %d, failure %d: oscillating backend left the ring", cycle, i+1)
			}
		}
		f.round() // the clean probe that resets the streak
		if st := f.state(t); st != stateHealthy {
			t.Fatalf("cycle %d: state after clean probe = %v, want healthy", cycle, st)
		}
	}
}

// TestFlapDampingDetectionBound pins the detection half: a genuinely dead
// backend is declared dead after exactly FailThreshold consecutive probe
// rounds — the documented FailThreshold × Interval + Timeout wall-clock
// bound — and not one round earlier.
func TestFlapDampingDetectionBound(t *testing.T) {
	f := newHealthFleet(t)
	f.flaky.SetMode(testutil.ChaosReset)
	for i := 1; i < f.rt.health.FailThreshold; i++ {
		f.round()
		if st := f.state(t); st == stateDead {
			t.Fatalf("dead after %d failures, threshold is %d", i, f.rt.health.FailThreshold)
		}
	}
	f.round()
	if st := f.state(t); st != stateDead {
		t.Fatalf("state after %d failures = %v, want dead", f.rt.health.FailThreshold, st)
	}
	if f.inRing() {
		t.Error("dead backend still in the placement ring")
	}
}

// TestFlapPenaltyDoubling pins the crash-loop damping: each death within
// the flap window doubles the success streak owed before readmission, and
// the penalty decays once the backend stays up a full window.
func TestFlapPenaltyDoubling(t *testing.T) {
	f := newHealthFleet(t)
	die := func() {
		f.flaky.SetMode(testutil.ChaosReset)
		for i := 0; i < f.rt.health.FailThreshold; i++ {
			f.round()
		}
		if st := f.state(t); st != stateDead {
			t.Fatalf("state = %v, want dead", st)
		}
	}
	recoverRounds := func(n int) {
		f.flaky.SetMode(testutil.ChaosPass)
		for i := 0; i < n; i++ {
			f.round()
		}
	}

	// First death: the base threshold readmits.
	die()
	recoverRounds(f.rt.health.RecoverThreshold)
	if st := f.state(t); st != stateHealthy {
		t.Fatalf("first recovery: state = %v, want healthy after %d successes", st, f.rt.health.RecoverThreshold)
	}

	// Second death, shortly after: the streak owed doubles.
	die()
	recoverRounds(f.rt.health.RecoverThreshold)
	if st := f.state(t); st != stateRecovering {
		t.Fatalf("flapping backend readmitted at the base threshold: state = %v", st)
	}
	if f.inRing() {
		t.Error("recovering flapper took placements")
	}
	recoverRounds(f.rt.health.RecoverThreshold)
	if st := f.state(t); st != stateHealthy {
		t.Fatalf("second recovery: state = %v, want healthy after the doubled streak", st)
	}

	// A quiet flap window decays the penalty back to the base threshold.
	f.now = f.now.Add(flapWindow + time.Minute)
	die()
	recoverRounds(f.rt.health.RecoverThreshold)
	if st := f.state(t); st != stateHealthy {
		t.Fatalf("post-decay recovery: state = %v, want healthy at the base threshold", st)
	}
}
