package server

// Prometheus text-format exposition (GET /v1/metrics): the same counters
// /v1/stats reports as JSON, rendered for scrapers. The format is the
// subset of text/plain; version=0.0.4 every Prometheus-compatible scraper
// accepts — # HELP, # TYPE, and one sample per line — written by hand so
// the server stays dependency-free.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// MetricsWriter accumulates one exposition body. Engines and the router
// both render their /v1/metrics through it. Families must be emitted
// contiguously (HELP/TYPE once, then every sample), which the handlers do
// by construction.
type MetricsWriter struct {
	b strings.Builder
}

// Family starts a metric family: its HELP and TYPE lines.
func (m *MetricsWriter) Family(name, help, typ string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// EscapeLabel escapes a label value per the exposition format.
func EscapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Sample writes one sample of the current family; labels is the rendered
// label list without braces, or "" for none.
func (m *MetricsWriter) Sample(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(&m.b, "%s{%s} %g\n", name, labels, v)
	} else {
		fmt.Fprintf(&m.b, "%s %g\n", name, v)
	}
}

// Serve writes the accumulated body as a 200 text-format response.
func (m *MetricsWriter) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(m.b.String()))
}

// BoolGauge renders a flag as a 0/1 gauge value.
func BoolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics serves GET /v1/metrics on an engine: store occupancy by
// resource kind, capacity and TTL configuration, and each collection's
// selection-cache fabric counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m MetricsWriter
	sessions, batches := s.store.Counts()

	m.Family("setdiscovery_uptime_seconds", "Seconds since the server started.", "gauge")
	m.Sample("setdiscovery_uptime_seconds", "", float64(int64(time.Since(s.started)/time.Second)))

	m.Family("setdiscovery_resources", "Live store entries by resource kind.", "gauge")
	m.Sample("setdiscovery_resources", `kind="session"`, float64(sessions))
	m.Sample("setdiscovery_resources", `kind="batch"`, float64(batches))

	m.Family("setdiscovery_live_discoveries", "Capacity weight of live resources (a batch counts every member).", "gauge")
	m.Sample("setdiscovery_live_discoveries", "", float64(s.store.Used()))

	m.Family("setdiscovery_max_sessions", "Configured live-discovery capacity.", "gauge")
	m.Sample("setdiscovery_max_sessions", "", float64(s.store.max))

	m.Family("setdiscovery_session_ttl_seconds", "Configured resource TTL.", "gauge")
	m.Sample("setdiscovery_session_ttl_seconds", "", float64(int64(s.store.ttl/time.Second)))

	m.Family("setdiscovery_sliding_ttl", "Whether the TTL slides on access (1) or is fixed from creation (0).", "gauge")
	m.Sample("setdiscovery_sliding_ttl", "", BoolGauge(s.sliding))

	type collRow struct {
		name           string
		sets, entities int
		tree           bool
		cache          CacheStats
	}
	var rows []collRow
	s.mu.RLock()
	for name, e := range s.collections {
		cs := e.c.SelectionCacheStats()
		rows = append(rows, collRow{
			name:     name,
			sets:     e.c.Len(),
			entities: e.c.Internal().DistinctEntities(),
			tree:     e.tree != nil,
			cache: CacheStats{
				Hits:      cs.Hits,
				Misses:    cs.Misses,
				Evictions: cs.Evictions,
				Coalesced: cs.Coalesced,
				Entries:   cs.Entries,
			},
		})
	}
	s.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	m.Family("setdiscovery_collection_sets", "Registered sets per collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_collection_sets", fmt.Sprintf(`collection=%q`, EscapeLabel(c.name)), float64(c.sets))
	}
	m.Family("setdiscovery_collection_entities", "Distinct entities per collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_collection_entities", fmt.Sprintf(`collection=%q`, EscapeLabel(c.name)), float64(c.entities))
	}
	m.Family("setdiscovery_collection_tree", "Whether a prebuilt decision tree is registered (1) for the collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_collection_tree", fmt.Sprintf(`collection=%q`, EscapeLabel(c.name)), BoolGauge(c.tree))
	}

	counter := func(name, help string, get func(CacheStats) float64) {
		m.Family(name, help, "counter")
		for _, c := range rows {
			m.Sample(name, fmt.Sprintf(`collection=%q`, EscapeLabel(c.name)), get(c.cache))
		}
	}
	counter("setdiscovery_selection_cache_hits_total",
		"Selections served from the collection-wide memo.",
		func(cs CacheStats) float64 { return float64(cs.Hits) })
	counter("setdiscovery_selection_cache_misses_total",
		"Selections computed because the memo had no entry.",
		func(cs CacheStats) float64 { return float64(cs.Misses) })
	counter("setdiscovery_selection_cache_evictions_total",
		"Memo entries evicted by the bounded store.",
		func(cs CacheStats) float64 { return float64(cs.Evictions) })
	counter("setdiscovery_selection_cache_coalesced_total",
		"Selections that waited on a concurrent computation instead of recomputing.",
		func(cs CacheStats) float64 { return float64(cs.Coalesced) })

	m.Family("setdiscovery_selection_cache_entries", "Live memo entries per collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_selection_cache_entries", fmt.Sprintf(`collection=%q`, EscapeLabel(c.name)), float64(c.cache.Entries))
	}

	m.Serve(w)
}
