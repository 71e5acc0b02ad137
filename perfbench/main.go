// Command perfbench is the repository's benchmark. One run sets up one
// seeded workload, drives it for a fixed time, checks every discovery
// against the oracle, and prints every metric as "name value unit",
// followed by a one-line JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload hot-rounds --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload web-sessions --seed 1 --seconds 20 --trace 1 --spans spans.jsonl
//	bash perfbench/run.sh --workload tree-build --seed 1 --seconds 20 --trace 0 --compare perfbench/testdata/baseline.json
//
// A wrong discovery, or a session left live after a pass, makes the result
// incorrect: the run prints every metric and exits 1. Failed calls
// (transport errors, non-2xx statuses, timeouts) are counted in "failed",
// and each phase prints how many discoveries it sent, how many succeeded and
// how many failed.
//
// # Workloads
//
// Each workload stresses different layers, so a change to one layer should
// move the numbers of the workloads that exercise it and leave the others
// alone.
//
//   - hot-rounds: a synthetic 64-set collection, no initial examples,
//     uniform targets, over the JSON plane. Every session walks one shared
//     question tree, so the selection memo serves nearly every selection
//     and a round costs only serving: codecs, the router hop, the store lock
//     and a small snapshot piggyback. Selection and strategy changes should
//     not show here.
//   - web-sessions: the web-tables corpus (webtables.DefaultParams, 40k
//     sets) and the two-entity seed queries (webtables.SeedQueries) that
//     select 100–1,500 candidate sets. Each session starts from its seed
//     pair, the paper's two-example query, with a target uniform in the
//     seed's sub-collection, over the JSON plane. Only the top of each
//     seed's question tree is shared, so most selections miss the memo: k-LP
//     selection and partitioning dominate, and snapshots grow to kilobytes.
//   - web-batches: the same corpus and seeds; batches of 8 members that
//     share a seed pair and have distinct targets, over the binary stream
//     plane's batch frames. Selection runs through the per-round batch
//     scheduler with shared partitions instead of the solo memo.
//   - tree-build: tree.Build(sub, strategy.NewKLP(cost.AD, 2),
//     tree.WithParallelism(nproc)) with a fresh factory per build, over 8 of
//     those sub-collections, spread evenly over the sizes up to 850 sets.
//     Offline Algorithm 3 with no serving: pruning, lookahead and partition
//     costs alone.
//
// The corpus and its seed queries are the same for every seed; the seed
// picks the targets and the order.
//
// # Load model and fleet
//
// The serving workloads run in process: two engines behind one router
// (internal/server, internal/router), every option at its default, so the
// router asks for a snapshot on every forwarded round. The loop is closed
// with zero think time: nproc workers start their next discovery as soon
// as the last one is finished and deleted, except while a calibration runs
// (see below). The JSON client holds at most nproc connections; on the
// stream plane each worker has its own connection. Every finished session
// or batch is deleted through the router (untimed); after each pass no
// engine may hold a live discovery and the router may not have resurrected
// or migrated anything. A warm-up, part of set-up and not of the measured
// time, creates one discovery per seed query and deletes it after its first
// question (tree-build: one build of the smallest tree). A run generates
// its inputs once — the 64 sets, or the corpus text and its seed queries —
// and then sets up at least three times, and again until a second has been
// spent (at most 200 times): load a fresh collection from the inputs
// (NewCollection, or ReadCollection of the text), start the fleet, warm up.
// setup_s is the median set-up.
//
// Every serving workload runs in passes. A pass loads a fresh copy of the
// collection into a fresh fleet, so caches start cold (neither the restart
// nor its warm-up is timed), and gives each worker a new seeded list: a hot
// pass 1,000 random discoveries per worker; a web-sessions pass visits every
// seed query four times, a web-batches pass once as a batch, in a seeded
// order with random targets. tree-build cycles over its trees, in a new
// seeded order each cycle.
//
// # Host-speed calibration
//
// The machine a run shares speeds up and slows down by tens of percent for
// stretches of seconds to minutes, and CPU time moves with wall time, so a
// run cannot tell a slow host from a slow program by its own timings. Every
// half second of measured load, the workers finish the calls in flight and
// a fixed reference kernel that the program cannot change runs alone for
// 50 ms (see calibrate.go); tree-build calibrates between builds at the
// same pace, and every run calibrates between set-ups every tenth of a
// second (hot-rounds' 200 set-ups take under half a second). A timing taken
// between two calibrations is multiplied by the host's speed there, the
// mean of the two, so each run reports what a host of nominal speed would
// have measured; a discovery paused for a calibration counts the stretch
// before it and the stretch after it each at its own speed. host.speed, a
// per-layer metric, is the run's mean.
//
// # Metrics
//
// With --trace 0 a run prints the end-to-end metrics, measured with tracing
// off. A "discovery" is a solo session, a batch member, or one target of a
// built tree; a "round" is one answer→next-question exchange (a batch round
// answers every live member), or one Select inside a build.
//
//	setup_s                 s          median set-up time
//	discoveries_per_s       1/s        workers × discoveries ÷ the sum of their create-to-result
//	                                   times (Little's law; deletes and pauses not counted);
//	                                   offline, targets ÷ build time, each tree once at its mean
//	first_question_p50_ms   ms         create → first question; offline, the root's Select
//	round_p90_us            us         answer → next question; offline, one Select
//	questions_mean          questions  the paper's AD: mean questions per discovered target
//	questions_max           questions  the paper's H: the most questions any target needed
//	heap_live_mb            MB         live heap after GC at the end of the measured time
//
// Every timing is scaled to the nominal host. The percentiles are over every
// sample of the measured time; a failed call enters them as +Inf (printed
// as the largest float). tree-build counts the questions of each tree once.
//
// With --trace 1 a run measures two set-ups for half of --seconds each, both
// carrying the trace hooks: the first untraced, for the runtime and memo
// counters, the second traced, for spans (see trace.go), so the traced
// replay runs the same discoveries. It prints the per-layer metrics, whose
// timings are as measured, not scaled:
//
//	host.speed                                     ratio  calibration kernel rate ÷ nominal, mean over the run
//	trace.round_us                                 us     traced mean round (client span); offline, mean Select
//	client.self_us                                 us     client span − router span: client codec plus loopback
//	router.self_us                                 us     router span − engine span
//	server.self_us                                 us     engine span − selection
//	discovery.selection_us_per_round               us     selection time the engines report (create's included), per round
//	discovery.batch_selection_us_per_member_round  us     the same per batch member and round
//	trace.linked_frac                              ratio  client rounds linked to router and engine spans
//	trace.overhead_frac                            ratio  untraced discoveries_per_s ÷ traced − 1
//	trace.spans                                    count
//	wireproto.bytes_per_round                      B      stream bytes through the router, both ways
//	router.response_bytes_per_round                B      bytes the client receives per round
//	server.state_bytes_per_round                   B      engine response − router response: the snapshot piggyback
//	discovery.memo_hit_ratio                       ratio  selection memo over the untraced half, base hits + misses
//	discovery.memo_hits                            count
//	discovery.memo_misses                          count
//	discovery.memo_coalesced                       count
//	discovery.memo_evictions                       count
//	strategy.lookahead_hit_ratio                   ratio  k-LP lookahead cache, offline builds
//	strategy.root_pruned_frac                      ratio  root candidates k-LP pruned, offline builds
//	tree.build_ms.p50                              ms     one span per tree.Build
//	tree.build_ms.max                              ms
//	runtime.alloc_kb_per_discovery                 KB     over the untraced half
//	runtime.cpu_ms_per_discovery                   ms     process CPU time (getrusage)
//	runtime.gc_cycles                              count
//	runtime.gc_pause_ms                            ms     total stop-the-world pause
//
// Self times are means per round over the linked rounds, so client, router,
// server and selection add up to trace.round_us. A layer a workload does
// not cross reports 0.
//
// # Baseline
//
// testdata/baseline.json holds, per workload and metric, the median and
// quartiles of a set of runs, stamped with nproc, GOMAXPROCS, the Go version
// and the commit. --compare FILE prints each metric's change against it and
// flags end-to-end metrics worse than their bound in BENCHMARK.json. To
// rebuild it, feed "<workload> <seed> <result line>" records to
// --summarize:
//
//	perfbench --summarize --commit <sha> --seconds 20 < runs.txt > perfbench/testdata/baseline.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullScale))
}

// traceCapacity bounds the spans one traced run keeps.
const traceCapacity = 1 << 20

func run(args []string, stdout, stderr io.Writer, sc scale) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 15, "measured time")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	spansOut := fs.String("spans", "", "with --trace 1, also write every span as a JSON line to this file")
	compareTo := fs.String("compare", "", "baseline file to compare the run against, with the bounds of ./BENCHMARK.json")
	summarizeIn := fs.Bool("summarize", false, "read '<workload> <seed> <result line>' records on stdin and print a baseline")
	commit := fs.String("commit", "", "with --summarize, the commit the runs measured")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarizeIn {
		b, err := summarize(os.Stdin, *commit, *seconds)
		if err == nil {
			err = writeIndented(stdout, b)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	traced := *trace == 1
	vals, res, err := measureWorkload(w, sc, *seed, time.Duration(*seconds*float64(time.Second)), traced, *spansOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if *compareTo != "" {
		var base baseline
		var bench benchmarkFile
		if err := errors.Join(readJSONFile(*compareTo, &base), readJSONFile("BENCHMARK.json", &bench)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		compare(stdout, &base, &bench, w.name, defs, vals)
	}
	if err := emit(stdout, defs, vals, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// maxSetups bounds the set-ups of one run.
const maxSetups = 200

// setupCalibrationEvery paces the calibrations between set-ups. It is
// shorter than calibrationEvery because hot-rounds' 200 set-ups of about
// 2 ms each span under half a second: at the measured phase's pace two
// calibrations would scale them all, and one 50 ms calibration is too noisy
// alone (over ten runs, set-up times scaled by two calibrations spread more
// than unscaled ones; by five to eight, less).
const setupCalibrationEvery = 100 * time.Millisecond

// measureWorkload sets the workload up several times and measures the last
// set-up for d. With traced it measures the last two set-ups for d/2 each:
// the first untraced, for the runtime and memo counters, the second traced,
// so the traced replay runs the same discoveries. It returns every metric it
// computed and the result line without metrics.
func measureWorkload(w workload, sc scale, seed int64, d time.Duration, traced bool, spansOut string, log io.Writer) (map[string]float64, result, error) {
	keep := 1
	if traced {
		keep = 2
	}
	var kept []bench
	defer func() {
		for _, b := range kept {
			b.close()
		}
	}()
	in, err := w.inputs(sc)
	if err != nil {
		return nil, result{}, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	// Set-ups are calibrated like builds: before the first, after the last,
	// and between two once setupCalibrationEvery has passed.
	sp := &phase{}
	var last time.Time
	spent := time.Duration(0)
	for i := 0; i < max(sc.setupReps, keep) || (spent < sc.setupTime && i < maxSetups); i++ {
		if time.Since(last) >= setupCalibrationEvery {
			if err := sp.calibrate(); err != nil {
				return nil, result{}, err
			}
			last = time.Now()
		}
		t0 := time.Now()
		b, err := w.setup(in, sc, seed, traced)
		if err != nil {
			return nil, result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		took := time.Since(t0)
		spent += took
		sp.recs = append(sp.recs, record{whole: []timing{{ms(took), len(sp.speeds) - 1}}})
		if kept = append(kept, b); len(kept) > keep {
			kept[0].close()
			kept = kept[1:]
		}
	}
	if err := sp.calibrate(); err != nil {
		return nil, result{}, err
	}
	// The closed set-ups' garbage is not the measured phase's to collect.
	runtime.GC()

	untracedFor := d
	if traced {
		untracedFor = d / 2
	}
	p, err := kept[0].measure(untracedFor, nil)
	if err != nil {
		return nil, result{}, err
	}
	logPhase(log, "measure", p)
	vals := endToEndValues(p)
	vals["setup_s"] = percentile(sp.samples(func(r *record) []timing { return r.whole }), 0.5) / 1e3
	// The samples are the benchmark's, not the program's: drop them first.
	// Twice: the first collection only moves sync.Pool contents aside.
	p.recs = nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	vals["heap_live_mb"] = float64(mem.HeapAlloc) / 1e6
	phases := []*phase{p}

	if traced {
		tr := newTracer(traceCapacity)
		pt, err := kept[1].measure(d-untracedFor, tr)
		if err != nil {
			return nil, result{}, err
		}
		logPhase(log, "traced", pt)
		if tr.dropped > 0 {
			fmt.Fprintf(log, "trace: %d spans beyond capacity were not kept\n", tr.dropped)
		}
		for k, v := range perLayerValues(p, pt, tr) {
			vals[k] = v
		}
		vals["host.speed"] = meanSpeed(p.speeds)
		vals["trace.overhead_frac"] = ratio(vals["discoveries_per_s"], endToEndValues(pt)["discoveries_per_s"]) - 1
		if spansOut != "" {
			if err := writeSpans(spansOut, tr); err != nil {
				return nil, result{}, err
			}
		}
		phases = append(phases, pt)
	}

	res := result{Correct: true}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if len(ph.wrong) > 0 || ph.hygiene != nil {
			res.Correct = false
		}
	}
	return vals, res, nil
}

// logPhase prints a phase's accounting: sent, succeeded, failed, and every
// correctness problem, and the host's speed over it.
func logPhase(w io.Writer, name string, p *phase) {
	fmt.Fprintf(w, "phase %s sent %d succeeded %d failed %d wrong %d in %s, host speed %.3f\n",
		name, p.attempted, p.attempted-p.failed-len(p.wrong), p.failed, len(p.wrong),
		p.elapsed.Round(time.Millisecond), meanSpeed(p.speeds))
	if p.firstErr != nil {
		fmt.Fprintf(w, "phase %s first failure: %v\n", name, p.firstErr)
	}
	for _, msg := range p.wrong {
		fmt.Fprintf(w, "phase %s WRONG: %s\n", name, msg)
	}
	if p.hygiene != nil {
		fmt.Fprintf(w, "phase %s LEFTOVER: %v\n", name, p.hygiene)
	}
}

// endToEndValues computes the end-to-end metrics of p but setup_s and
// heap_live_mb. Timings are scaled to the nominal host (see calibrate.go).
func endToEndValues(p *phase) map[string]float64 {
	n, secs := p.throughput()
	firstQ := p.samples(func(r *record) []timing { return []timing{r.firstQ} })
	rounds := p.samples(func(r *record) []timing { return r.rounds })
	vals := map[string]float64{
		"discoveries_per_s":     ratio(float64(n), secs),
		"first_question_p50_ms": percentile(firstQ, 0.50),
		"round_p90_us":          percentile(rounds, 0.90),
	}
	// tree-build asks the same questions every time it builds a tree, so
	// each tree counts once.
	var targets, questions int64
	maxQ := 0
	seen := make(map[int]bool)
	for _, r := range p.recs {
		if p.offline && seen[r.key] {
			continue
		}
		seen[r.key] = true
		targets += int64(r.targets)
		questions += r.questions
		maxQ = max(maxQ, r.maxQ)
	}
	vals["questions_mean"] = ratio(float64(questions), float64(targets))
	vals["questions_max"] = float64(maxQ)
	return vals
}

// perLayerValues computes the per-layer metrics from an untraced phase u
// and the traced replay t.
func perLayerValues(u, t *phase, tr *tracer) map[string]float64 {
	vals := map[string]float64{
		"trace.spans":                    float64(len(tr.spans)),
		"discovery.memo_hits":            float64(u.memo.Hits),
		"discovery.memo_misses":          float64(u.memo.Misses),
		"discovery.memo_coalesced":       float64(u.memo.Coalesced),
		"discovery.memo_evictions":       float64(u.memo.Evictions),
		"discovery.memo_hit_ratio":       ratio(float64(u.memo.Hits), float64(u.memo.Hits+u.memo.Misses)),
		"strategy.lookahead_hit_ratio":   ratio(float64(u.lookHits), float64(u.lookHits+u.lookMisses)),
		"runtime.alloc_kb_per_discovery": ratio(u.allocKB, float64(u.discoveries)),
		"runtime.cpu_ms_per_discovery":   ratio(ms(u.cpu), float64(u.discoveries)),
		"runtime.gc_cycles":              float64(u.gcCycles),
		"runtime.gc_pause_ms":            ms(u.gcPause),
	}
	if len(u.rootPruned) > 0 {
		sum := 0.0
		for _, f := range u.rootPruned {
			sum += f
		}
		vals["strategy.root_pruned_frac"] = sum / float64(len(u.rootPruned))
	}

	var builds, selects []span
	for _, s := range tr.spans {
		switch s.Tier {
		case tierBuild:
			builds = append(builds, s)
		case tierSelect:
			selects = append(selects, s)
		}
	}
	if len(builds) > 0 {
		// Offline a round is one Select, all of it selection.
		var buildMS []float64
		inBuild := make(map[string]bool, len(builds))
		for _, s := range builds {
			buildMS = append(buildMS, float64(s.dur())/1e6)
			inBuild[s.ID] = true
		}
		var selectNS float64
		linked := 0
		for _, s := range selects {
			selectNS += float64(s.dur())
			if inBuild[s.ID] {
				linked++
			}
		}
		vals["tree.build_ms.p50"] = percentile(buildMS, 0.50)
		vals["tree.build_ms.max"] = percentile(buildMS, 1)
		vals["trace.round_us"] = ratio(selectNS/1e3, float64(len(selects)))
		vals["discovery.selection_us_per_round"] = vals["trace.round_us"]
		vals["trace.linked_frac"] = ratio(float64(linked), float64(len(selects)))
		return vals
	}

	bd := budgetOf(tr.spans)
	selPerRound := ratio(float64(t.selectionUS), float64(t.roundCount))
	vals["trace.round_us"] = bd.roundUS
	vals["trace.linked_frac"] = ratio(float64(bd.linked), float64(bd.clientRounds))
	vals["client.self_us"] = bd.clientSelfUS
	vals["router.self_us"] = bd.routerSelfUS
	vals["server.self_us"] = bd.engineUS - selPerRound
	vals["discovery.selection_us_per_round"] = selPerRound
	vals["discovery.batch_selection_us_per_member_round"] = ratio(float64(t.selectionUS), float64(t.memberRound))
	vals["router.response_bytes_per_round"] = bd.routerRespBytes
	vals["server.state_bytes_per_round"] = bd.engineRespBytes - bd.routerRespBytes
	if bd.stream {
		vals["wireproto.bytes_per_round"] = bd.routerReqBytes + bd.routerRespBytes
	}
	return vals
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeIndented(w io.Writer, b *baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
