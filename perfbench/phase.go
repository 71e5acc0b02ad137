package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"setdiscovery/internal/server"
)

// timing is one timing sample, in the unit of the metric it feeds, and the
// calibration interval it was taken in (see phase.scale).
type timing struct {
	v float64
	k int
}

// record is one discovery as the client saw it: a solo session, a batch, or
// a tree build.
type record struct {
	key int // the item: a tree of tree-build; unused by the serving workloads
	// whole is the discovery, create to result, or the build, in ms: one
	// stretch per calibration interval it ran in. It is nil if a call failed.
	whole     []timing
	firstQ    timing   // ms: create to first question, or the root's selection; +Inf if the create failed
	rounds    []timing // µs: answer to next question, or every Select of a build
	targets   int      // targets discovered
	questions int64    // asked over those targets
	maxQ      int
}

// phase is what one measured phase observed. Timing samples of failed calls
// are +Inf, so a failure counts as missing every latency limit.
type phase struct {
	start   time.Time
	offline bool // tree-build: records are builds, keyed by tree
	recs    []record
	elapsed time.Duration
	clients int // discoveries a serving phase ran at once: its workers
	// speeds are the host speeds the phase's calibrations measured (see
	// calibrate.go). Calibration k opens interval k and the next one closes
	// it; every call or build runs inside one interval.
	speeds []float64

	attempted   int // sessions, batches or trees started
	failed      int // of those, the ones with a failed call
	firstErr    error
	wrong       []string // discoveries that did not end at the oracle's target
	discoveries int      // targets discovered: sessions, batch members or tree leaves

	roundCount  int   // answered rounds (batch rounds count once)
	memberRound int   // batch members answered over those rounds
	selectionUS int64 // selection time the engines reported

	memo       server.CacheStats // selection-memo delta over the phase
	lookHits   int64             // lookahead-cache hits over the phase's builds
	lookMisses int64
	rootPruned []float64 // share of the root's candidates each build pruned

	hygiene error

	// What the process spent while busy (see spent).
	cpu      time.Duration
	allocKB  float64
	gcCycles uint32
	gcPause  time.Duration
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge adds q's observations to p.
func (p *phase) merge(q *phase) {
	p.recs = append(p.recs, q.recs...)
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.wrong = append(p.wrong, q.wrong...)
	p.discoveries += q.discoveries
	p.roundCount += q.roundCount
	p.memberRound += q.memberRound
	p.selectionUS += q.selectionUS
}

// discovered records one finished discovery's outcome against its target.
func (p *phase) discovered(r *record, want, got string, questions int, selectionUS int64) {
	if got != want {
		p.wrong = append(p.wrong, fmt.Sprintf("discovered %q, want %q", got, want))
		return
	}
	r.targets++
	r.questions += int64(questions)
	r.maxQ = max(r.maxQ, questions)
	p.discoveries++
	p.selectionUS += selectionUS
}

// scale is the host's speed over interval k: the mean of the two
// calibrations around it. A timing taken in interval k times scale(k) is
// what the nominal host would have measured.
func (p *phase) scale(k int) float64 {
	switch {
	case k < 0 || k >= len(p.speeds):
		return 1
	case k+1 < len(p.speeds):
		return (p.speeds[k] + p.speeds[k+1]) / 2
	}
	return p.speeds[k]
}

// scaled is t as the nominal host would have measured it.
func (p *phase) scaled(t timing) float64 { return t.v * p.scale(t.k) }

// wholeMS is r's discovery or build time on the nominal host.
func (p *phase) wholeMS(r *record) float64 {
	sum := 0.0
	for _, t := range r.whole {
		sum += p.scaled(t)
	}
	return sum
}

// throughput returns the discoveries the phase's rate is over and the
// seconds they would have taken on the nominal host. A serving phase's
// workers each ran one discovery after another, so by Little's law they
// discover clients × targets in the sum of the discoveries' times; the
// pauses between discoveries (deletes, restarts) and inside them
// (calibrations) do not count. tree-build builds its trees a different
// number of times each, depending on where the time ran out, so it counts
// every tree once, at its mean build time: the mix of trees is the same in
// every run.
func (p *phase) throughput() (targets int, secs float64) {
	if !p.offline {
		for i := range p.recs {
			if r := &p.recs[i]; r.whole != nil {
				targets += r.targets
				secs += p.wholeMS(r) / 1e3
			}
		}
		return targets, secs / float64(max(p.clients, 1))
	}
	type acc struct {
		ms      float64
		n       int
		targets int
	}
	trees := make(map[int]*acc)
	for i := range p.recs {
		r := &p.recs[i]
		if r.whole == nil {
			continue
		}
		a := trees[r.key]
		if a == nil {
			a = &acc{targets: r.targets}
			trees[r.key] = a
		}
		a.ms += p.wholeMS(r)
		a.n++
	}
	for _, a := range trees {
		targets += a.targets
		secs += a.ms / float64(a.n) / 1e3
	}
	return targets, secs
}

// usage is what the process has spent up to a moment.
type usage struct {
	cpu     time.Duration
	alloc   uint64 // bytes
	gcs     uint32
	pauseNS uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: cpuTime(), alloc: m.TotalAlloc, gcs: m.NumGC, pauseNS: m.PauseTotalNs}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spent adds what the process spent between u0 and u1 to p, and unspend
// takes it away again: a calibration inside a measured stretch is not the
// workload's.
func (p *phase) spent(u0, u1 usage) {
	p.cpu += u1.cpu - u0.cpu
	p.allocKB += float64(u1.alloc-u0.alloc) / 1024
	p.gcCycles += u1.gcs - u0.gcs
	p.gcPause += time.Duration(u1.pauseNS - u0.pauseNS)
}

func (p *phase) unspend(u0, u1 usage) {
	p.cpu -= u1.cpu - u0.cpu
	p.allocKB -= float64(u1.alloc-u0.alloc) / 1024
	p.gcCycles -= u1.gcs - u0.gcs // wraps until spent adds the stretch back
	p.gcPause -= time.Duration(u1.pauseNS - u0.pauseNS)
}

// calibrate measures the host's speed into p, opening a new interval.
func (p *phase) calibrate() error {
	s, err := calibrate()
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	p.speeds = append(p.speeds, s)
	return nil
}

// samples gathers one timing over the phase's records, scaled to the
// nominal host.
func (p *phase) samples(get func(*record) []timing) []float64 {
	var out []float64
	for i := range p.recs {
		for _, t := range get(&p.recs[i]) {
			out = append(out, p.scaled(t))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

var inf = math.Inf(1)
