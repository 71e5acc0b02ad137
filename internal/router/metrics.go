package router

// Prometheus text-format exposition for the router (GET /v1/metrics):
// fleet liveness, the self-healing counters (migrations, resurrections),
// and per-backend proxied round-trip latency quantiles. Counters are
// process-local atomics; latency is a fixed-size sample ring per backend
// recorded on every completed backend exchange of either plane (doProxy for
// JSON, the stream handlers for frames), with p50/p99 computed at scrape
// time — a scrape sorts at most latencyRingSize samples per backend, so the
// endpoint stays cheap enough for tight intervals.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"setdiscovery/internal/server"
)

// latencyRingSize bounds the per-backend latency window. 512 samples at a
// typical scrape interval covers the recent traffic a p99 should reflect
// without letting ancient rounds pin the quantiles.
const latencyRingSize = 512

// latencyRing is a fixed-capacity ring of round-trip durations in seconds.
// Guarded by routerMetrics.mu.
type latencyRing struct {
	samples [latencyRingSize]float64
	n       uint64  // total ever recorded; n % size is the next slot
	sum     float64 // running sum of every recorded sample (summary _sum)
}

func (r *latencyRing) record(d time.Duration) {
	r.samples[r.n%latencyRingSize] = d.Seconds()
	r.n++
	r.sum += d.Seconds()
}

// quantiles returns the window's p50 and p99 (zero when empty).
func (r *latencyRing) quantiles() (p50, p99 float64) {
	n := int(r.n)
	if n > latencyRingSize {
		n = latencyRingSize
	}
	if n == 0 {
		return 0, 0
	}
	window := make([]float64, n)
	copy(window, r.samples[:n])
	sort.Float64s(window)
	rank := func(q float64) float64 {
		i := int(q * float64(n-1))
		return window[i]
	}
	return rank(0.50), rank(0.99)
}

// routerMetrics holds the router's scrape-time state.
type routerMetrics struct {
	migrations    atomic.Int64 // resources moved via the portable-state protocol
	resurrections atomic.Int64 // resources re-imported off a dead backend

	mu    sync.Mutex
	rings map[string]*latencyRing // backend name → recent round-trips
}

// observeRound records one successful proxied round-trip against a backend.
func (m *routerMetrics) observeRound(backend string, d time.Duration) {
	m.mu.Lock()
	if m.rings == nil {
		m.rings = make(map[string]*latencyRing)
	}
	r := m.rings[backend]
	if r == nil {
		r = &latencyRing{}
		m.rings[backend] = r
	}
	r.record(d)
	m.mu.Unlock()
}

// handleMetrics serves GET /v1/metrics on the router.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m server.MetricsWriter

	m.Family("setdiscovery_router_uptime_seconds", "Seconds since the router started.", "gauge")
	m.Sample("setdiscovery_router_uptime_seconds", "", float64(int64(time.Since(rt.started)/time.Second)))

	type beRow struct {
		name     string
		health   string
		draining bool
	}
	rt.mu.RLock()
	rows := make([]beRow, 0, len(rt.backends))
	for _, b := range rt.backends {
		rows = append(rows, beRow{name: b.name, health: b.state.String(), draining: b.draining})
	}
	tracked := len(rt.owners)
	rt.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	m.Family("setdiscovery_router_tracked_sessions", "Resources with a live affinity entry.", "gauge")
	m.Sample("setdiscovery_router_tracked_sessions", "", float64(tracked))

	m.Family("setdiscovery_router_backend_up", "Backend health by probe verdict (1 = healthy).", "gauge")
	for _, b := range rows {
		m.Sample("setdiscovery_router_backend_up",
			fmt.Sprintf(`backend=%q,health=%q`, server.EscapeLabel(b.name), server.EscapeLabel(b.health)),
			server.BoolGauge(b.health == "healthy"))
	}
	m.Family("setdiscovery_router_backend_draining", "Whether the backend is refusing new placements.", "gauge")
	for _, b := range rows {
		m.Sample("setdiscovery_router_backend_draining",
			fmt.Sprintf(`backend=%q`, server.EscapeLabel(b.name)), server.BoolGauge(b.draining))
	}

	m.Family("setdiscovery_router_migrations_total", "Resources moved between engines via snapshot export/import.", "counter")
	m.Sample("setdiscovery_router_migrations_total", "", float64(rt.metrics.migrations.Load()))

	m.Family("setdiscovery_router_resurrections_total", "Resources re-imported from a cached snapshot after a backend death.", "counter")
	m.Sample("setdiscovery_router_resurrections_total", "", float64(rt.metrics.resurrections.Load()))

	type latRow struct {
		name          string
		p50, p99, sum float64
		count         uint64
	}
	rt.metrics.mu.Lock()
	lats := make([]latRow, 0, len(rt.metrics.rings))
	for name, ring := range rt.metrics.rings {
		p50, p99 := ring.quantiles()
		lats = append(lats, latRow{name: name, p50: p50, p99: p99, sum: ring.sum, count: ring.n})
	}
	rt.metrics.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i].name < lats[j].name })

	m.Family("setdiscovery_router_round_seconds",
		"Proxied round-trip latency per backend over the recent sample window.", "summary")
	for _, l := range lats {
		be := server.EscapeLabel(l.name)
		m.Sample("setdiscovery_router_round_seconds", fmt.Sprintf(`backend=%q,quantile="0.5"`, be), l.p50)
		m.Sample("setdiscovery_router_round_seconds", fmt.Sprintf(`backend=%q,quantile="0.99"`, be), l.p99)
		m.Sample("setdiscovery_router_round_seconds_sum", fmt.Sprintf(`backend=%q`, be), l.sum)
		m.Sample("setdiscovery_router_round_seconds_count", fmt.Sprintf(`backend=%q`, be), float64(l.count))
	}

	m.Serve(w)
}
