package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions, and the end-to-end bounds; the package comment says
// what each one measures.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"discoveries_per_s", "1/s", "higher"},
	{"first_question_p50_ms", "ms", "lower"},
	{"round_p90_us", "us", "lower"},
	{"questions_mean", "questions", "lower"},
	{"questions_max", "questions", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer metrics come from a traced run.
var perLayer = []metricDef{
	{"host.speed", "ratio", "higher"},
	{"trace.round_us", "us", "lower"},
	{"client.self_us", "us", "lower"},
	{"router.self_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"discovery.selection_us_per_round", "us", "lower"},
	{"discovery.batch_selection_us_per_member_round", "us", "lower"},
	{"trace.linked_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
	{"wireproto.bytes_per_round", "B", "lower"},
	{"router.response_bytes_per_round", "B", "lower"},
	{"server.state_bytes_per_round", "B", "lower"},
	{"discovery.memo_hit_ratio", "ratio", "higher"},
	{"discovery.memo_hits", "count", "higher"},
	{"discovery.memo_misses", "count", "lower"},
	{"discovery.memo_coalesced", "count", "higher"},
	{"discovery.memo_evictions", "count", "lower"},
	{"strategy.lookahead_hit_ratio", "ratio", "higher"},
	{"strategy.root_pruned_frac", "ratio", "higher"},
	{"tree.build_ms.p50", "ms", "lower"},
	{"tree.build_ms.max", "ms", "lower"},
	{"runtime.alloc_kb_per_discovery", "KB", "lower"},
	{"runtime.cpu_ms_per_discovery", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
}

// percentile is the nearest-rank p-quantile of xs (sorted in place); +Inf
// samples, from failed calls, sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite keeps a value JSON can carry: a percentile that a failed call
// made +Inf is reported as the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// emit prints every metric of defs as "name value unit", then the result
// line.
func emit(w io.Writer, defs []metricDef, vals map[string]float64, res result) error {
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := finite(vals[d.name])
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// baseline is the committed reference: per workload and metric, the
// median and quartiles over a set of runs, stamped with where they ran.
type baseline struct {
	Stamp     baselineStamp                       `json:"stamp"`
	Workloads map[string]map[string]baselineStats `json:"workloads"`
}

type baselineStamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	Seeds      []int64 `json:"seeds"`
}

type baselineStats struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reads "<workload> <seed> <result line>" records and builds the
// baseline from them.
func summarize(r io.Reader, commit string, seconds float64) (*baseline, error) {
	type key struct{ workload, metric string }
	samples := make(map[key][]float64)
	units := make(map[key]string)
	seeds := make(map[int64]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) < 3 {
			continue
		}
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", fields[1], err)
		}
		var res result
		if err := json.Unmarshal([]byte(fields[2]), &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", fields[0], seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return nil, fmt.Errorf("%s seed %d: run was not clean", fields[0], seed)
		}
		seeds[seed] = true
		for name, m := range res.Metrics {
			k := key{fields[0], name}
			samples[k] = append(samples[k], m.Value)
			units[k] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	b := &baseline{
		Stamp: baselineStamp{Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds},
		Workloads: make(map[string]map[string]baselineStats),
	}
	for s := range seeds {
		b.Stamp.Seeds = append(b.Stamp.Seeds, s)
	}
	sort.Slice(b.Stamp.Seeds, func(i, j int) bool { return b.Stamp.Seeds[i] < b.Stamp.Seeds[j] })
	for k, xs := range samples {
		if b.Workloads[k.workload] == nil {
			b.Workloads[k.workload] = make(map[string]baselineStats)
		}
		q1, q2, q3 := quartiles(xs)
		b.Workloads[k.workload][k.metric] = baselineStats{Unit: units[k], N: len(xs), Median: q2, Q1: q1, Q3: q3}
	}
	return b, nil
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints, for every metric of the run, its change against the
// baseline median, and flags end-to-end metrics that got worse by more than
// their bound in BENCHMARK.json. It returns the number flagged.
func compare(w io.Writer, base *baseline, bench *benchmarkFile, workload string, defs []metricDef, vals map[string]float64) int {
	if base.Stamp.NProc != runtime.NumCPU() || base.Stamp.Go != runtime.Version() {
		fmt.Fprintf(w, "compare: baseline ran on %d CPUs with %s; this run has %d CPUs with %s\n",
			base.Stamp.NProc, base.Stamp.Go, runtime.NumCPU(), runtime.Version())
	}
	bounds := make(map[string]float64)
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	flagged := 0
	for _, d := range defs {
		st, ok := base.Workloads[workload][d.name]
		if !ok {
			fmt.Fprintf(w, "compare %s: not in the baseline\n", d.name)
			continue
		}
		v := vals[d.name]
		delta := 0.0
		if st.Median != 0 {
			delta = (v - st.Median) / math.Abs(st.Median)
		}
		worse := delta
		if d.better == "higher" {
			worse = -delta
		}
		note := ""
		if bound, ok := bounds[d.name]; ok && worse > bound {
			note = fmt.Sprintf("  WORSE BY MORE THAN THE %.0f%% BOUND", bound*100)
			flagged++
		}
		fmt.Fprintf(w, "compare %s %.6g vs baseline %.6g [%.6g, %.6g] %+.1f%%%s\n",
			d.name, v, st.Median, st.Q1, st.Q3, delta*100, note)
	}
	return flagged
}
