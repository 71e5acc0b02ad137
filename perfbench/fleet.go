package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"setdiscovery"
	"setdiscovery/internal/router"
	"setdiscovery/internal/server"
)

// fleetEngines is the fleet's size: two engines behind one router, every
// option at its default (so the router piggybacks a snapshot on every
// forwarded round). Both engines register the same in-memory collection,
// so they share its selection memo, and the router places every resource
// of one collection on that collection's ring owner.
const fleetEngines = 2

// fleet is the in-process deployment under test.
type fleet struct {
	routerURL    string
	routerStream string
	engineURLs   []string
	rt           *router.Router
	admin        *http.Client
	closers      []func()
}

// startFleet serves c under name on fleetEngines dual-plane engines behind a
// dual-plane router. With h non-nil every HTTP handler and stream listener
// is wrapped for tracing.
func startFleet(name string, c *setdiscovery.Collection, h *hooks) (*fleet, error) {
	f := &fleet{rt: router.New(), admin: &http.Client{Timeout: callTimeout}}
	handler := func(t tier, hd http.Handler) http.Handler {
		if h == nil {
			return hd
		}
		return h.middleware(t, hd)
	}
	streamLn := func(t tier, l net.Listener) net.Listener {
		if h == nil {
			return l
		}
		return &frameListener{Listener: l, tier: t, hooks: h}
	}
	serveHTTP := func(hd http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: hd}
		go hs.Serve(ln)
		f.closers = append(f.closers, func() { hs.Close() })
		return "http://" + ln.Addr().String(), nil
	}
	serveStream := func(t tier, serve func(net.Listener) error) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		go serve(streamLn(t, ln))
		f.closers = append(f.closers, func() { ln.Close() })
		return ln.Addr().String(), nil
	}

	for i := 0; i < fleetEngines; i++ {
		engine := fmt.Sprintf("engine%d", i)
		srv := server.New()
		if err := srv.Register(name, c); err != nil {
			f.close()
			return nil, err
		}
		url, err := serveHTTP(handler(tierEngine, srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		addr, err := serveStream(tierEngine, srv.ServeStream)
		if err != nil {
			f.close()
			return nil, err
		}
		f.engineURLs = append(f.engineURLs, url)
		if err := f.rt.AddBackend(engine, url); err != nil {
			f.close()
			return nil, err
		}
		if err := f.rt.SetBackendStream(engine, addr); err != nil {
			f.close()
			return nil, err
		}
		// Removing the backend closes the router's pooled connections to
		// it, which ends the engine's connection goroutines.
		f.closers = append(f.closers, func() { f.rt.RemoveBackend(engine) })
	}
	var err error
	if f.routerURL, err = serveHTTP(handler(tierRouter, f.rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	if f.routerStream, err = serveStream(tierRouter, f.rt.ServeStream); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
	f.admin.CloseIdleConnections()
}

func (f *fleet) getJSON(url string, out any) error {
	resp, err := f.admin.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// memoStats reads the selection-memo counters from the first engine's
// /v1/stats. The engines share one collection, so either engine reports
// the fleet's counters.
func (f *fleet) memoStats() (server.CacheStats, error) {
	var st server.StatsResponse
	if err := f.getJSON(f.engineURLs[0]+"/v1/stats", &st); err != nil {
		return server.CacheStats{}, err
	}
	if len(st.Collections) == 0 {
		return server.CacheStats{}, fmt.Errorf("engine stats list no collection")
	}
	return st.Collections[0].Cache, nil
}

// checkHygiene fails if any engine still holds a live discovery, or if the
// router resurrected or migrated anything: the benchmark deletes every
// resource it finishes and never kills an engine.
func (f *fleet) checkHygiene() error {
	for _, url := range f.engineURLs {
		var st server.StatsResponse
		if err := f.getJSON(url+"/v1/stats", &st); err != nil {
			return err
		}
		if st.LiveDiscoveries > 0 {
			return fmt.Errorf("engine %s holds %d live discoveries after the phase", url, st.LiveDiscoveries)
		}
	}
	resp, err := f.admin.Get(f.routerURL + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	counts, err := promCounters(resp.Body,
		"setdiscovery_router_resurrections_total", "setdiscovery_router_migrations_total")
	if err != nil {
		return err
	}
	for name, v := range counts {
		if v != 0 {
			return fmt.Errorf("router reports %s = %g", name, v)
		}
	}
	return nil
}

// promCounters reads unlabelled samples of the named families from a
// Prometheus text exposition; every name must be present.
func promCounters(r io.Reader, names ...string) (map[string]float64, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("router metrics lack %s", n)
		}
	}
	return out, nil
}

// callTimeout bounds every client call; a call that takes longer fails.
const callTimeout = 30 * time.Second
