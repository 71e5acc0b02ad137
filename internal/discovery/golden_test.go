package discovery

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sessions.golden from this build")

// goldenScenario is one session of testdata/sessions.golden, replayed by
// the test named in test.
type goldenScenario struct {
	test   string
	name   string
	coll   string
	c      *dataset.Collection
	target *dataset.Set
	oracle Oracle
	opts   Options
}

// noisyOpts are the §6 recovery options of the noisy-oracle scenarios.
func noisyOpts(o Options) Options {
	o.Backtrack = true
	o.ConfirmTarget = true
	o.MaxQuestions = 200
	o.MaxBacktracks = 200
	return o
}

// unsureFirst answers "don't know" to the first question, about an entity
// or a subset, and truthfully for target afterwards.
type unsureFirst struct {
	target *dataset.Set
	asked  bool
}

func (o *unsureFirst) unsure() bool {
	first := !o.asked
	o.asked = true
	return first
}

// Answer implements Oracle.
func (o *unsureFirst) Answer(e dataset.Entity) Answer {
	if o.unsure() {
		return Unknown
	}
	return TargetOracle{o.target}.Answer(e)
}

// AnswerSubset implements GroupOracle.
func (o *unsureFirst) AnswerSubset(members []dataset.Entity, sem grouptest.Semantics) Answer {
	if o.unsure() {
		return Unknown
	}
	return TargetOracle{o.target}.AnswerSubset(members, sem)
}

// goldenScenarios lists the sessions the golden file pins, in file order,
// with the test that replays them:
//   - k-LP (k=2), gain-k (k=2) and most-even over every target of the
//     paper collection and of a 50-set synthetic collection
//     (TestPooledSessionsAskIdenticalQuestions);
//   - k-LP with the first question answered "don't know", and with
//     batches of three questions, over every paper target
//     (TestPooledSessionsWithUnknownsAndBatches);
//   - k-LP against a noisy oracle (P=0.2) with backtracking and target
//     confirmation, 10 seeded trials per paper target
//     (TestPooledSessionsWithBacktracking);
//   - the same with batches of three, 5 seeded trials per paper target: a
//     later batch question need not split the candidates the earlier ones
//     narrowed, so only here can a backtracking restore come out empty
//     (TestGoldenSessions);
//   - the halving and additive group strategies over every paper target,
//     plain and in 5 seeded noisy backtracking trials (TestGoldenSessions);
//   - the halving and additive group strategies with the first subset
//     question answered "don't know", which excludes every member of the
//     subset, over every paper target (TestGoldenSessions);
//   - the MaxQuestions halt over every paper target: k-LP with batches of
//     three at MaxQuestions 2, where the limit is checked per interaction,
//     so the whole first batch is asked, and halving at MaxQuestions 2
//     (TestGoldenSessions).
func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	paper := testutil.PaperCollection()
	synth50, err := synth.Generate(synth.Params{N: 50, SizeMin: 8, SizeMax: 12, Alpha: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenScenario
	var test string
	add := func(name, coll string, c *dataset.Collection, target *dataset.Set, o Oracle, opts Options) {
		out = append(out, goldenScenario{test, name, coll, c, target, o, opts})
	}
	test = "TestPooledSessionsAskIdenticalQuestions"
	for _, cc := range []struct {
		name string
		c    *dataset.Collection
	}{{"paper", paper}, {"synth50", synth50}} {
		klp, gaink := strategy.NewKLP(cost.AD, 2), strategy.NewGainK(2)
		for _, target := range cc.c.Sets() {
			o := TargetOracle{target}
			add("klp-k2", cc.name, cc.c, target, o, Options{Strategy: klp.New()})
			add("gaink-2", cc.name, cc.c, target, o, Options{Strategy: gaink.New()})
			add("most-even", cc.name, cc.c, target, o, Options{Strategy: strategy.MostEven{}.New()})
		}
	}
	klp := strategy.NewKLP(cost.AD, 2)
	test = "TestPooledSessionsWithUnknownsAndBatches"
	for _, target := range paper.Sets() {
		add("klp-k2-unsure-first", "paper", paper, target, &unsureFirst{target: target}, Options{Strategy: klp.New()})
		add("klp-k2-batch3", "paper", paper, target, TargetOracle{target},
			Options{Strategy: klp.New(), BatchSize: 3})
	}
	test = "TestPooledSessionsWithBacktracking"
	for _, target := range paper.Sets() {
		for trial := range 10 {
			seed := uint64(trial)*1000 + uint64(target.Index)
			o := &NoisyOracle{Inner: TargetOracle{target}, P: 0.2, R: rng.New(seed)}
			add(fmt.Sprintf("klp-k2-noisy-t%d", trial), "paper", paper, target, o,
				noisyOpts(Options{Strategy: klp.New()}))
		}
	}
	test = "TestGoldenSessions"
	for _, target := range paper.Sets() {
		for trial := range 5 {
			seed := uint64(trial)*1000 + uint64(target.Index)
			o := &NoisyOracle{Inner: TargetOracle{target}, P: 0.2, R: rng.New(seed)}
			opts := noisyOpts(Options{Strategy: klp.New(), BatchSize: 3})
			add(fmt.Sprintf("klp-k2-batch3-noisy-t%d", trial), "paper", paper, target, o, opts)
		}
	}
	for _, g := range []grouptest.Strategy{grouptest.Halving{}, grouptest.Additive{}} {
		for _, target := range paper.Sets() {
			add(g.Name(), "paper", paper, target, TargetOracle{target}, Options{Group: g})
			for trial := range 5 {
				seed := uint64(trial)*1000 + uint64(target.Index)
				o := &NoisyOracle{Inner: TargetOracle{target}, P: 0.2, R: rng.New(seed)}
				add(fmt.Sprintf("%s-noisy-t%d", g.Name(), trial), "paper", paper, target, o,
					noisyOpts(Options{Group: g}))
			}
		}
	}
	for _, g := range []grouptest.Strategy{grouptest.Halving{}, grouptest.Additive{}} {
		for _, target := range paper.Sets() {
			add(g.Name()+"-unsure-first", "paper", paper, target, &unsureFirst{target: target},
				Options{Group: g})
		}
	}
	for _, target := range paper.Sets() {
		o := TargetOracle{target}
		add("klp-k2-batch3-max2", "paper", paper, target, o,
			Options{Strategy: klp.New(), BatchSize: 3, MaxQuestions: 2})
		add("halving-max2", "paper", paper, target, o,
			Options{Group: grouptest.Halving{}, MaxQuestions: 2})
	}
	return out
}

// runGolden drives a session to completion, answering membership, subset
// and confirmation questions from o.
func runGolden(t *testing.T, sc goldenScenario) (*Session, *Result, error) {
	t.Helper()
	s, err := NewSession(sc.c, nil, sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; !s.Done(); steps++ {
		if steps > 10000 {
			t.Fatalf("%s %s: session does not finish", sc.name, sc.target.Name)
		}
		var a Answer
		if set, ok := s.PendingConfirm(); ok {
			a = No
			if sc.oracle.(Confirmer).Confirm(set) {
				a = Yes
			}
		} else if members, sem, ok := s.PendingSubset(); ok {
			a = sc.oracle.(GroupOracle).AnswerSubset(members, sem)
		} else {
			e, _ := s.Next()
			a = sc.oracle.Answer(e)
		}
		if err := s.Answer(a); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	return s, res, err
}

// goldenLine renders one finished session: scenario and target, the asked
// log, the counters, and the outcome.
func goldenLine(sc goldenScenario, res *Result, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s:", sc.name, sc.coll, sc.target.Name)
	for _, q := range res.Asked {
		b.WriteByte(' ')
		if q.Subset == nil {
			b.WriteString(sc.c.EntityName(q.Entity))
		} else {
			names := make([]string, len(q.Subset))
			for i, e := range q.Subset {
				names[i] = sc.c.EntityName(e)
			}
			fmt.Fprintf(&b, "%s[%s]", q.Semantics, strings.Join(names, ","))
		}
		b.WriteString("=" + [...]string{No: "n", Yes: "y", Unknown: "?"}[q.Answer])
	}
	fmt.Fprintf(&b, " | q=%d i=%d u=%d b=%d | ", res.Questions, res.Interactions, res.Unknowns, res.Backtracks)
	if err != nil {
		fmt.Fprintf(&b, "err=%v", err)
		return b.String()
	}
	target := "-"
	if res.Target != nil {
		target = res.Target.Name
	}
	fmt.Fprintf(&b, "target=%s cands=%v", target, res.Candidates.Members())
	return b.String()
}

// goldenSessionsPath is the golden file of the session scenarios.
var goldenSessionsPath = filepath.Join("testdata", "sessions.golden")

// replayGolden replays the golden scenarios the calling test owns and
// requires each to reproduce its line of testdata/sessions.golden: the exact
// question sequence, counters and outcome. It also requires every session to
// end with at most one pooled bitset outstanding in its scratch, the final
// candidates: backtracking restores come from the pool too.
func replayGolden(t *testing.T) {
	t.Helper()
	data, err := os.ReadFile(goldenSessionsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	scs := goldenScenarios(t)
	if len(want) != len(scs) {
		t.Fatalf("%s has %d lines for %d scenarios", goldenSessionsPath, len(want), len(scs))
	}
	replayed := 0
	for i, sc := range scs {
		if sc.test != t.Name() {
			continue
		}
		replayed++
		s, res, err := runGolden(t, sc)
		if got := goldenLine(sc, res, err); got != want[i] {
			t.Fatalf("%s line %d differs:\ngot:  %s\nwant: %s", goldenSessionsPath, i+1, got, want[i])
		}
		if out := s.scratch.Pool().Stats().Outstanding(); out > 1 {
			t.Errorf("%s %s: %d pooled bitsets outstanding at session end, want ≤ 1",
				sc.name, sc.target.Name, out)
		}
	}
	if replayed == 0 {
		t.Fatalf("no golden scenario belongs to %s", t.Name())
	}
}

// TestGoldenSessions replays the batched noisy-backtracking and the
// group-testing scenarios. With -update it first rewrites the whole golden
// file, every scenario, from this build; do that only for a change meant to
// alter questions:
//
//	go test ./internal/discovery/ -run 'TestGoldenSessions|TestPooledSessions' -update
func TestGoldenSessions(t *testing.T) {
	if *updateGolden {
		var got bytes.Buffer
		for _, sc := range goldenScenarios(t) {
			_, res, err := runGolden(t, sc)
			got.WriteString(goldenLine(sc, res, err) + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSessionsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	replayGolden(t)
}
