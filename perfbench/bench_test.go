package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"setdiscovery/internal/webtables"
	"setdiscovery/internal/wireproto"
)

// testScale runs every workload end to end in about a second: a small web
// corpus, a few seed queries, one set-up.
var testScale = scale{
	corpus: webtables.Params{NumSets: 3000, NumDomains: 30, DomainMin: 20, DomainMax: 400,
		SetMin: 3, SetMax: 40, NoiseRate: 0.05, Seed: 0x77EB},
	minSets:      20,
	maxSets:      200,
	seedPairs:    6,
	setupReps:    1,
	batch:        4,
	passSessions: 3,
	hotPass:      20,
	trees:        3,
	treeMaxSets:  200,
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []named `json:"end_to_end"`
	PerLayer []named `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestWorkloadSmoke(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSONFile("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]named{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", fmt.Sprint(trace)}
				if code := run(args, &out, &errs, testScale); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				// correct also means no engine held a live discovery after a
				// phase, and nothing was resurrected or migrated.
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), "\n"+m.Name+" ") && !strings.HasPrefix(out.String(), m.Name+" ") {
						t.Errorf("metric %s is not printed as a name-value-unit line", m.Name)
					}
				}
			})
		}
	}
}

func TestSelfTime(t *testing.T) {
	// Overlapping children count once; a child reaching past its parent is
	// clipped.
	parent := span{Start: 0, End: 100}
	if got := selfTime(parent, span{Start: 10, End: 40}, span{Start: 30, End: 60}, span{Start: 90, End: 120}); got != 40 {
		t.Errorf("self time with overlapping children = %d, want 40", got)
	}
	if got := selfTime(parent); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}

	// A create's router span has its ID from the response body; the two
	// rounds of one session link by ordinal, whatever order the spans were
	// recorded in, and another session's spans stay apart.
	created := idFromBody([]byte(`{"session_id":"abc","done":false,"entity":"x"}`))
	if created != "abc" {
		t.Fatalf("idFromBody = %q", created)
	}
	us := int64(1000)
	spans := []span{
		{Tier: tierClient, Op: opCreate, ID: "abc", Start: 0, End: 100 * us},
		{Tier: tierEngine, Op: opCreate, ID: "abc", Start: 20 * us, End: 70 * us},
		{Tier: tierRouter, Op: opCreate, ID: created, Start: 10 * us, End: 90 * us},
		{Tier: tierClient, Op: opRound, ID: "abc", Start: 400 * us, End: 500 * us},
		{Tier: tierClient, Op: opRound, ID: "abc", Start: 200 * us, End: 300 * us},
		{Tier: tierRouter, Op: opRound, ID: "abc", Start: 410 * us, End: 480 * us},
		{Tier: tierRouter, Op: opRound, ID: "xyz", Start: 205 * us, End: 295 * us},
		{Tier: tierRouter, Op: opRound, ID: "abc", Start: 210 * us, End: 290 * us},
		{Tier: tierEngine, Op: opRound, ID: "abc", Start: 420 * us, End: 470 * us},
		{Tier: tierEngine, Op: opRound, ID: "abc", Start: 220 * us, End: 260 * us},
	}
	creates := linkCalls(spans, opCreate)
	if len(creates) != 1 || creates[0].router == nil || creates[0].router.Start != 10*us || creates[0].engine.Start != 20*us {
		t.Fatalf("create chain = %+v", creates)
	}
	b := budgetOf(spans)
	if b.clientRounds != 2 || b.linked != 2 {
		t.Fatalf("rounds %d, linked %d; want 2 and 2", b.clientRounds, b.linked)
	}
	// Round 1: client 100, router 80, engine 40; round 2: 100, 70, 50.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"round", b.roundUS, 100},
		{"client self", b.clientSelfUS, (20 + 30) / 2.0},
		{"router self", b.routerSelfUS, (40 + 20) / 2.0},
		{"engine", b.engineUS, (40 + 50) / 2.0},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %g µs, want %g", c.name, c.got, c.want)
		}
	}
	if sum := b.clientSelfUS + b.routerSelfUS + b.engineUS; math.Abs(sum-b.roundUS) > 1e-9 {
		t.Errorf("self times add up to %g µs, round is %g", sum, b.roundUS)
	}
}

func TestThroughputCountsEveryTreeOnce(t *testing.T) {
	// Tree 0 was built three times, tree 1 once and then failed: each tree
	// counts once, at its mean build time, whatever the repetitions.
	p := &phase{offline: true, recs: []record{
		{key: 0, whole: []timing{{10, 0}}, targets: 4},
		{key: 1, whole: []timing{{100, 0}}, targets: 6},
		{key: 0, whole: []timing{{30, 0}}, targets: 4},
		{key: 0, whole: []timing{{20, 0}}, targets: 4},
		{key: 1},
	}}
	if n, secs := p.throughput(); n != 10 || math.Abs(secs-0.12) > 1e-12 {
		t.Errorf("offline throughput = %d targets over %gs, want 10 over 0.12s", n, secs)
	}
	// A serving phase counts every discovery of its passes.
	// Two workers ran discoveries back to back: by Little's law, twice the
	// targets over the sum of the discoveries' times, each stretch scaled by
	// the calibrations around its interval. The second discovery was paused
	// for the calibration that closed interval 0.
	p = &phase{clients: 2, speeds: []float64{1, 2, 0.5}, recs: []record{
		{whole: []timing{{1000, 0}}, targets: 1},
		{whole: []timing{{400, 0}, {1600, 1}}, targets: 8},
		{targets: 3},
	}}
	if n, secs := p.throughput(); n != 9 || math.Abs(secs-(1.5+0.4*1.5+1.6*1.25)/2) > 1e-12 {
		t.Errorf("serving throughput = %d targets over %gs, want 9 over 2.05s", n, secs)
	}
}

func TestCalibrationSplitsADiscoveryIntoStretches(t *testing.T) {
	p := &phase{speeds: []float64{1}}
	g := &pauser{}
	w := &worker{g: g, p: p}
	w.enter()
	var r record
	w.startTiming(&r)
	w.yield() // no calibration waits: the stretch goes on
	calibrated := make(chan struct{})
	go func() {
		g.pause()
		p.speeds = append(p.speeds, 2)
		g.resume()
		close(calibrated)
	}()
	for w.k == 0 {
		w.yield()
	}
	w.stopTiming()
	w.leave()
	<-calibrated
	if len(r.whole) < 2 || r.whole[len(r.whole)-1].k != 1 {
		t.Fatalf("stretches %+v: want the last in interval 1", r.whole)
	}
	for _, s := range r.whole[:len(r.whole)-1] {
		if s.k != 0 {
			t.Fatalf("stretches %+v: want all but the last in interval 0", r.whole)
		}
	}
}

func TestTimingsScaleToTheNominalHost(t *testing.T) {
	// On a host twice as fast as the nominal one, the nominal host would
	// have taken twice as long.
	recs := []record{{whole: []timing{{5, 0}}, firstQ: timing{1, 0}, rounds: []timing{{10, 0}, {20, 0}},
		targets: 1, questions: 3, maxQ: 3}}
	slow := endToEndValues(&phase{recs: recs, clients: 1, speeds: []float64{1, 1}})
	fast := endToEndValues(&phase{recs: recs, clients: 1, speeds: []float64{1.5, 2.5}})
	for name, want := range map[string]float64{
		"discoveries_per_s": 0.5, "first_question_p50_ms": 2, "round_p90_us": 2,
		"questions_mean": 1, "questions_max": 1,
	} {
		if got := fast[name] / slow[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: fast host / nominal host = %g, want %g", name, got, want)
		}
	}
}

func TestFrameParser(t *testing.T) {
	frames := []wireproto.Message{
		&wireproto.Create{Channel: 3, Collection: "web", Seeds: [][]string{{"#1", "#2"}}},
		&wireproto.Question{Channel: 3, ID: "0123456789abcdef0123456789abcdef",
			Members: []wireproto.MemberQuestion{{Entity: "#7"}}, State: bytes.Repeat([]byte{9}, 500)},
		&wireproto.Answer{Channel: 300, Answer: "yes", Entity: "#7"},
		&wireproto.Result{Channel: 300, ID: "s2", Done: true, Members: []wireproto.MemberResult{{Target: "t"}}},
		&wireproto.Error{Channel: 300, Status: 404, Msg: "gone"},
	}
	stream := []byte(wireproto.Preface)
	var sizes []int
	for _, m := range frames {
		before := len(stream)
		var err error
		if stream, err = wireproto.AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(stream)-before)
	}
	// Feed the bytes in awkward chunks: frame boundaries fall mid-header.
	var got []frameInfo
	p := frameParser{skip: len(wireproto.Preface)}
	for rest := stream; len(rest) > 0; {
		n := min(7, len(rest))
		p.feed(rest[:n], func(f frameInfo) { got = append(got, f) })
		rest = rest[n:]
	}
	want := []frameInfo{
		{typ: wireproto.TypeCreate, channel: 3, size: sizes[0]},
		{typ: wireproto.TypeQuestion, channel: 3, size: sizes[1], id: "0123456789abcdef0123456789abcdef"},
		{typ: wireproto.TypeAnswer, channel: 300, size: sizes[2]},
		{typ: wireproto.TypeResult, channel: 300, size: sizes[3], id: "s2"},
		{typ: wireproto.TypeError, channel: 300, size: sizes[4]},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d frames, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareFlagsRegressionsBeyondBound(t *testing.T) {
	base := &baseline{Workloads: map[string]map[string]baselineStats{
		"w": {"discoveries_per_s": {Median: 100}, "round_p90_us": {Median: 100}, "trace.round_us": {Median: 100}},
	}}
	var bench benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "discoveries_per_s", "better": "higher", "bound": 0.1},
		{"name": "round_p90_us", "better": "lower", "bound": 0.1}]}`), &bench); err != nil {
		t.Fatal(err)
	}
	defs := []metricDef{{"discoveries_per_s", "1/s", "higher"}, {"round_p90_us", "us", "lower"}, {"trace.round_us", "us", "lower"}}
	for _, c := range []struct {
		vals    map[string]float64
		flagged int
	}{
		{map[string]float64{"discoveries_per_s": 95, "round_p90_us": 105, "trace.round_us": 200}, 0},
		{map[string]float64{"discoveries_per_s": 85, "round_p90_us": 80, "trace.round_us": 100}, 1},
		{map[string]float64{"discoveries_per_s": 120, "round_p90_us": 115, "trace.round_us": 100}, 1},
	} {
		if got := compare(io.Discard, base, &bench, "w", defs, c.vals); got != c.flagged {
			t.Errorf("compare(%v) flagged %d, want %d", c.vals, got, c.flagged)
		}
	}
}
