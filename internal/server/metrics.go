package server

// Prometheus text-format exposition (GET /v1/metrics): the StatsResponse
// that /v1/stats encodes as JSON, rendered for scrapers — one source behind
// both endpoints, so they cannot disagree. The format is the subset of
// text/plain; version=0.0.4 every Prometheus-compatible scraper accepts —
// # HELP, # TYPE, and one sample per line — written by hand so the server
// stays dependency-free.

import (
	"fmt"
	"net/http"
	"strings"
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

// Label renders one label pair, name="value", with the value escaped per
// the exposition format: backslash, double quote and line feed, and nothing
// else. Sample's labels are such pairs joined by commas. The loop stands in
// for a strings.Replacer, whose 6 KB byte table would stay live for the
// life of the process after the first scrape.
func Label(name, value string) string {
	var b strings.Builder
	b.Grow(len(name) + len(value) + 3)
	b.WriteString(name)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\', '"':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
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
// selection-cache fabric counters, all read from stats().
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.stats()
	var m MetricsWriter

	m.Family("setdiscovery_uptime_seconds", "Seconds since the server started.", "gauge")
	m.Sample("setdiscovery_uptime_seconds", "", float64(st.UptimeSeconds))

	m.Family("setdiscovery_resources", "Live store entries by resource kind.", "gauge")
	m.Sample("setdiscovery_resources", `kind="session"`, float64(st.Sessions))
	m.Sample("setdiscovery_resources", `kind="batch"`, float64(st.Batches))

	m.Family("setdiscovery_live_discoveries", "Capacity weight of live resources (a batch counts every member).", "gauge")
	m.Sample("setdiscovery_live_discoveries", "", float64(st.LiveDiscoveries))

	m.Family("setdiscovery_max_sessions", "Configured live-discovery capacity.", "gauge")
	m.Sample("setdiscovery_max_sessions", "", float64(st.MaxSessions))

	m.Family("setdiscovery_session_ttl_seconds", "Configured resource TTL.", "gauge")
	m.Sample("setdiscovery_session_ttl_seconds", "", float64(st.TTLSeconds))

	m.Family("setdiscovery_sliding_ttl", "Whether the TTL slides on access (1) or is fixed from creation (0).", "gauge")
	m.Sample("setdiscovery_sliding_ttl", "", BoolGauge(st.SlidingTTL))

	perCollection := func(name, help, typ string, get func(CollectionStats) float64) {
		m.Family(name, help, typ)
		for _, c := range st.Collections {
			m.Sample(name, Label("collection", c.Name), get(c))
		}
	}
	perCollection("setdiscovery_collection_sets", "Registered sets per collection.", "gauge",
		func(c CollectionStats) float64 { return float64(c.Sets) })
	perCollection("setdiscovery_collection_entities", "Distinct entities per collection.", "gauge",
		func(c CollectionStats) float64 { return float64(c.Entities) })
	perCollection("setdiscovery_collection_tree", "Whether a prebuilt decision tree is registered (1) for the collection.", "gauge",
		func(c CollectionStats) float64 { return BoolGauge(c.Tree) })
	perCollection("setdiscovery_selection_cache_hits_total", "Selections served from the collection-wide memo.", "counter",
		func(c CollectionStats) float64 { return float64(c.Cache.Hits) })
	perCollection("setdiscovery_selection_cache_misses_total", "Selections computed because the memo had no entry.", "counter",
		func(c CollectionStats) float64 { return float64(c.Cache.Misses) })
	perCollection("setdiscovery_selection_cache_evictions_total", "Memo entries evicted by the bounded store.", "counter",
		func(c CollectionStats) float64 { return float64(c.Cache.Evictions) })
	perCollection("setdiscovery_selection_cache_coalesced_total",
		"Selections that waited on a concurrent computation instead of recomputing.", "counter",
		func(c CollectionStats) float64 { return float64(c.Cache.Coalesced) })
	perCollection("setdiscovery_selection_cache_entries", "Live memo entries per collection.", "gauge",
		func(c CollectionStats) float64 { return float64(c.Cache.Entries) })

	m.Serve(w)
}
