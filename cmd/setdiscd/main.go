// Command setdiscd serves interactive set discovery over HTTP: collections
// are registered at startup, and remote clients resolve their target set
// through create-session / get-question / post-answer round-trips (the
// serving inversion of cmd/setdisc's terminal loop).
//
// Usage (engine mode):
//
//	setdiscd -collection sets.txt [-collection name=other.txt ...]
//	         [-addr :8080] [-stream-addr :8081]
//	         [-ttl 30m] [-sliding-ttl] [-max-sessions 16384]
//	         [-cache-bound n] [-cache-persist dir] [-max-batch-members 1024]
//	         [-prebuild] [-strategy klp] [-k 2] [-q 10] [-metric ad|h]
//
// Usage (router mode — the sharding tier):
//
//	setdiscd -route engineA=http://host1:8080 -route engineB=http://host2:8080
//	         [-stream-route engineA=host1:8081 -stream-route engineB=host2:8081]
//	         [-addr :8079] [-stream-addr :8078] [-router-persist routing.log]
//	         [-health-interval 5s] [-health-timeout 2s]
//	         [-health-fail 3] [-health-recover 2]
//	         [-snapshot-every 16] [-proxy-timeout 10s]
//
// Each -collection flag registers one collection; "name=path" sets the
// registered name explicitly, a bare path uses the file's base name without
// extension. With -prebuild a decision tree is constructed per collection
// at startup (using -strategy/-k/-q/-metric) and registered for tree
// sessions ("tree": true): live sessions under the tree's options, which
// ask the tree's questions and find the lookahead caches the build left
// warm.
//
// With -route flags the daemon runs as a router instead of an engine: it
// speaks the same /v1/ protocol, consistent-hashes collections across the
// named backends, pins every session to the engine that created it, and
// live-migrates sessions (snapshot export/import on the state endpoints)
// when a backend is drained (POST /v1/router/backends/{name}/drain) or a
// new one joins. The backends should register the same collections.
//
// The router self-heals (see the README "Fault tolerance" section): it
// probes every backend's /v1/healthz on -health-interval, declares one dead
// after -health-fail consecutive failures, resurrects the dead engine's
// sessions onto survivors from their last-known snapshots plus the answers
// acknowledged since (captured every -snapshot-every answered rounds, and
// journaled between), and readmits the engine after -health-recover
// consecutive successes. -health-interval 0
// disables the probe loop. With -router-persist the backend set and the
// session→backend affinity table survive router restarts in an append-only
// log, so a restarted router keeps routing every live session without a
// rediscovery stampede.
//
// With -stream-addr the daemon additionally serves the binary streaming
// protocol (internal/wireproto) on a second listener — one persistent TCP
// connection multiplexes many sessions with one length-prefixed frame per
// question/answer round, bypassing per-request HTTP overhead (see the
// README "Wire-speed data plane" section). In router mode, -stream-route
// name=host:port declares each backend's stream address so the router can
// fan stream sessions out over pooled backend connections; backends
// without a -stream-route are reachable over the JSON plane only.
//
// With -cache-persist the engine writes each collection's
// selection-cache shard to the named directory on graceful shutdown and
// reloads it at startup, so a restarted daemon serves warm from its first
// session instead of re-paying the cold-start selection cost.
//
// Example session against the paper's running example:
//
//	setdiscd -collection paper=testdata/paper.txt &
//	curl -s -X POST localhost:8080/v1/collections/paper/sessions \
//	     -d '{"initial":["b"]}'               # -> {"session_id":"...","entity":"c",...}
//	curl -s -X POST localhost:8080/v1/sessions/$ID/answer -d '{"answer":"yes"}'
//	...                                       # until "done":true
//	curl -s localhost:8080/v1/sessions/$ID/result
//
// Batch discovery steps many sessions with one POST per round; members at
// the same candidate-set state share one selection through the
// collection's selection memo (see the README "Batch discovery" section):
//
//	curl -s -X POST localhost:8080/v1/collections/paper/batches \
//	     -d '{"seeds":[{"initial":["b"]},{"initial":["b"]}]}'
//	curl -s -X POST localhost:8080/v1/batches/$BID/answers \
//	     -d '{"answers":[{"member":0,"answer":"yes"},{"member":1,"answer":"no"}]}'
//	curl -s localhost:8080/v1/batches/$BID/results
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"setdiscovery"
	"setdiscovery/internal/router"
	"setdiscovery/internal/server"
)

// collectionFlags collects repeated -collection values.
type collectionFlags []string

func (f *collectionFlags) String() string { return strings.Join(*f, ",") }

func (f *collectionFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var collections, routes, streamRoutes collectionFlags
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		streamAddr   = flag.String("stream-addr", "", "listen address for the binary streaming protocol (empty disables)")
		ttl          = flag.Duration("ttl", server.DefaultTTL, "idle session lifetime")
		slidingTTL   = flag.Bool("sliding-ttl", true, "slide a session's expiry on every touch (false = fixed deadline at creation)")
		maxSessions  = flag.Int("max-sessions", server.DefaultMaxSessions, "maximum live sessions (batch members included)")
		maxBatch     = flag.Int("max-batch-members", server.DefaultMaxBatchMembers, "maximum members per batch request")
		prebuild     = flag.Bool("prebuild", false, "build and register a decision tree per collection at startup")
		strategyName = flag.String("strategy", "klp", "entity selection strategy for -prebuild trees")
		k            = flag.Int("k", 2, "lookahead steps for -prebuild trees")
		q            = flag.Int("q", 10, "candidate entities per step (klple/klplve)")
		metricName   = flag.String("metric", "ad", "cost metric for -prebuild trees: ad or h")
		parallel     = flag.Int("parallel", 0, "tree construction workers (0 = GOMAXPROCS)")
		cacheBound   = flag.Int("cache-bound", 1<<20, "max entries per lookahead cache and per selection memo; a full cache shard evicts an arbitrary entry (0 or less = the default, 1048576)")
		cachePersist = flag.String("cache-persist", "", "directory for persisted selection-cache shards (written on shutdown, loaded at startup)")

		routerPersist  = flag.String("router-persist", "", "router mode: append-only log persisting the backend set and affinity table across restarts")
		healthInterval = flag.Duration("health-interval", router.DefaultHealthInterval, "router mode: backend health-probe interval (0 disables the probe loop)")
		healthTimeout  = flag.Duration("health-timeout", router.DefaultHealthTimeout, "router mode: per-probe timeout")
		healthFail     = flag.Int("health-fail", router.DefaultFailThreshold, "router mode: consecutive probe failures before a backend is declared dead")
		healthRecover  = flag.Int("health-recover", router.DefaultRecoverThreshold, "router mode: consecutive probe successes before a dead backend is readmitted")
		snapshotEvery  = flag.Int("snapshot-every", router.DefaultSnapshotEvery, "router mode: answered rounds between session-snapshot captures (bounds the answer journal kept per session and the rounds a resurrection replays)")
		proxyTimeout   = flag.Duration("proxy-timeout", router.DefaultProxyTimeout, "router mode: per-attempt deadline on proxied client requests")
	)
	flag.Var(&collections, "collection", "collection to serve, as path or name=path (repeatable, required)")
	flag.Var(&routes, "route", "run as a router over this backend engine, as name=url (repeatable; excludes -collection)")
	flag.Var(&streamRoutes, "stream-route", "router mode: a backend's stream address, as name=host:port (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "setdiscd: ", log.LstdFlags)
	if len(routes) > 0 {
		if len(collections) > 0 {
			fmt.Fprintln(os.Stderr, "setdiscd: -route (router mode) and -collection (engine mode) are mutually exclusive")
			os.Exit(2)
		}
		runRouter(logger, *addr, routes, streamRoutes, routerConfig{
			persist:        *routerPersist,
			streamAddr:     *streamAddr,
			healthInterval: *healthInterval,
			healthTimeout:  *healthTimeout,
			healthFail:     *healthFail,
			healthRecover:  *healthRecover,
			snapshotEvery:  *snapshotEvery,
			proxyTimeout:   *proxyTimeout,
		})
		return
	}
	if len(streamRoutes) > 0 {
		fmt.Fprintln(os.Stderr, "setdiscd: -stream-route requires router mode (-route)")
		os.Exit(2)
	}
	if len(collections) == 0 {
		fmt.Fprintln(os.Stderr, "setdiscd: at least one -collection (or -route) is required")
		flag.Usage()
		os.Exit(2)
	}

	srvOpts := []server.Option{
		server.WithTTL(*ttl),
		server.WithSlidingTTL(*slidingTTL),
		server.WithMaxSessions(*maxSessions),
		server.WithMaxBatchMembers(*maxBatch),
		server.WithLogf(logger.Printf),
		// Bound every session's shared lookahead cache and the selection
		// memo so a long-running daemon's memory stays flat no matter how
		// many distinct sub-collections its users explore; evictions only
		// recompute.
		server.WithSessionOptions(setdiscovery.WithCacheBound(*cacheBound)),
	}
	if *cachePersist != "" {
		srvOpts = append(srvOpts, server.WithCachePersist(*cachePersist))
	}
	srv := server.New(srvOpts...)

	metric := setdiscovery.AverageDepth
	if strings.EqualFold(*metricName, "h") {
		metric = setdiscovery.Height
	}
	buildOpts := []setdiscovery.Option{
		setdiscovery.WithStrategy(*strategyName),
		setdiscovery.WithK(*k),
		setdiscovery.WithQ(*q),
		setdiscovery.WithMetric(metric),
		setdiscovery.WithParallelism(*parallel),
		setdiscovery.WithCacheBound(*cacheBound),
	}

	for _, spec := range collections {
		name, path := splitSpec(spec)
		c, err := readCollection(path)
		if err != nil {
			logger.Fatal(err)
		}
		if err := srv.Register(name, c); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("registered collection %q: %d sets from %s", name, c.Len(), path)
		if *prebuild {
			start := time.Now()
			tr, err := c.BuildTree(buildOpts...)
			if err != nil {
				logger.Fatalf("building tree for %q: %v", name, err)
			}
			if err := srv.RegisterTree(name, tr); err != nil {
				logger.Fatal(err)
			}
			logger.Printf("prebuilt tree for %q in %v (avg %.2f questions, worst case %d)",
				name, time.Since(start).Round(time.Millisecond), tr.AvgDepth(), tr.Height())
		}
	}

	if *streamAddr != "" {
		ln := listenStream(logger, *streamAddr)
		defer ln.Close()
		go func() {
			if err := srv.ServeStream(ln); err != nil {
				logger.Printf("stream plane: %v", err)
			}
		}()
	}
	logger.Printf("serving on %s (session ttl %v, max %d sessions)", *addr, *ttl, *maxSessions)
	serve(logger, *addr, srv.Handler())
	// Graceful shutdown: flush the selection-cache shards so the next
	// start serves warm (no-op without -cache-persist).
	if err := srv.PersistCaches(); err != nil {
		logger.Printf("persisting caches: %v", err)
	}
}

// routerConfig carries the router-mode flags into runRouter.
type routerConfig struct {
	persist        string
	streamAddr     string
	healthInterval time.Duration
	healthTimeout  time.Duration
	healthFail     int
	healthRecover  int
	snapshotEvery  int
	proxyTimeout   time.Duration
}

// runRouter starts the daemon in router mode: a self-healing sharding front
// over the named backend engines.
func runRouter(logger *log.Logger, addr string, routes, streamRoutes []string, cfg routerConfig) {
	opts := []router.Option{
		router.WithLogf(logger.Printf),
		router.WithHealth(router.HealthConfig{
			Interval:         cfg.healthInterval,
			Timeout:          cfg.healthTimeout,
			FailThreshold:    cfg.healthFail,
			RecoverThreshold: cfg.healthRecover,
		}),
		router.WithSnapshotEvery(cfg.snapshotEvery),
		router.WithProxyTimeout(cfg.proxyTimeout),
	}
	if cfg.persist != "" {
		opts = append(opts, router.WithPersist(cfg.persist))
	}
	rt := router.New(opts...)
	if err := rt.PersistError(); err != nil {
		// An unusable log means a restart would silently forget every
		// session — refuse to start rather than degrade invisibly.
		logger.Fatalf("router persistence: %v", err)
	}
	for _, spec := range routes {
		i := strings.IndexByte(spec, '=')
		if i <= 0 {
			logger.Fatalf("invalid -route %q: want name=url", spec)
		}
		name, u := spec[:i], spec[i+1:]
		if err := rt.AddBackend(name, u); err != nil {
			if errors.Is(err, router.ErrBackendExists) {
				// A restart replaying its -route flags over the persisted
				// backend set: already registered, identically.
				continue
			}
			logger.Fatal(err)
		}
		logger.Printf("routing to backend %q at %s", name, u)
	}
	// Stream routes are replayed after the backends exist; they are not
	// persisted, so every restart re-declares them from its flags.
	for _, spec := range streamRoutes {
		i := strings.IndexByte(spec, '=')
		if i <= 0 {
			logger.Fatalf("invalid -stream-route %q: want name=host:port", spec)
		}
		name, sa := spec[:i], spec[i+1:]
		if err := rt.SetBackendStream(name, sa); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("stream fan-out to backend %q at %s", name, sa)
	}
	if cfg.streamAddr != "" {
		ln := listenStream(logger, cfg.streamAddr)
		defer ln.Close()
		go func() {
			if err := rt.ServeStream(ln); err != nil {
				logger.Printf("stream plane: %v", err)
			}
		}()
	}
	if cfg.healthInterval > 0 {
		hctx, hcancel := context.WithCancel(context.Background())
		defer hcancel()
		rt.StartHealth(hctx)
		logger.Printf("health loop: probing every %v (dead after %d failures, readmitted after %d successes)",
			cfg.healthInterval, cfg.healthFail, cfg.healthRecover)
	}
	logger.Printf("routing on %s (%d backends; drain with POST /v1/router/backends/{name}/drain)", addr, len(routes))
	serve(logger, addr, rt.Handler())
}

// listenStream opens the binary-plane listener, fatally on failure.
func listenStream(logger *log.Logger, addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("stream plane: %v", err)
	}
	logger.Printf("streaming on %s (binary wire protocol)", ln.Addr())
	return ln
}

// serve runs the HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully.
func serve(logger *log.Logger, addr string, h http.Handler) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
}

// splitSpec parses a -collection value: "name=path" or a bare path whose
// base name (without extension) becomes the registered name.
func splitSpec(spec string) (name, path string) {
	if i := strings.IndexByte(spec, '='); i > 0 {
		return spec[:i], spec[i+1:]
	}
	base := filepath.Base(spec)
	return strings.TrimSuffix(base, filepath.Ext(base)), spec
}

func readCollection(path string) (*setdiscovery.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return setdiscovery.ReadCollection(f)
}
