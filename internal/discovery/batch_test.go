package discovery

import (
	"errors"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
)

// countingFactory wraps a strategy factory so every Select/SelectExcluding
// of every minted instance bumps one shared counter — the machine-independent
// measure of "selection computations" a batch's shared memo amortises.
type countingFactory struct {
	inner strategy.Factory
	n     *int64
}

func (f countingFactory) Name() string { return f.inner.Name() }

func (f countingFactory) New() strategy.Strategy {
	return &countingStrategy{inner: f.inner.New(), n: f.n}
}

type countingStrategy struct {
	inner strategy.Strategy
	n     *int64
}

func (s *countingStrategy) Name() string { return s.inner.Name() }

func (s *countingStrategy) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	*s.n++
	return s.inner.Select(sub)
}

func (s *countingStrategy) SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	*s.n++
	if ex, ok := s.inner.(strategy.Excluder); ok {
		return ex.SelectExcluding(sub, excluded)
	}
	return strategy.MostEven{}.SelectExcluding(sub, excluded)
}

// stepSession answers a session's pending question (membership or
// confirmation) from the oracle; it reports false when the session has
// nothing pending.
func stepSession(t *testing.T, s *Session, o Oracle) bool {
	t.Helper()
	if s.Done() {
		return false
	}
	if set, ok := s.PendingConfirm(); ok {
		a := No
		if c, can := o.(Confirmer); can && c.Confirm(set) {
			a = Yes
		}
		if err := s.Answer(a); err != nil {
			t.Fatalf("confirm answer: %v", err)
		}
		return true
	}
	e, done := s.Next()
	if done {
		return false
	}
	if err := s.Answer(o.Answer(e)); err != nil {
		t.Fatalf("answer: %v", err)
	}
	return true
}

// driveBatch answers every live member once per round (member i from
// oracles[i]) until all members are done.
func driveBatch(t *testing.T, b *Batch, oracles []Oracle) {
	t.Helper()
	for !b.Done() {
		stepped := false
		for i := 0; i < b.Len(); i++ {
			if stepSession(t, b.Member(i), oracles[i]) {
				stepped = true
			}
		}
		if !stepped {
			t.Fatal("batch not done but no member had a pending question")
		}
	}
}

// outstanding sums the pooled bitsets the batch's members hold: leak
// accounting over every member's scratch.
func outstanding(b *Batch) int64 {
	var n int64
	for _, m := range b.members {
		if m.scratch != nil {
			n += m.scratch.Pool().Stats().Outstanding()
		}
	}
	return n
}

// driveSolo runs a solo session to completion against the oracle.
func driveSolo(t *testing.T, s *Session, o Oracle) {
	t.Helper()
	for stepSession(t, s, o) {
	}
}

// assertSameOutcome fails unless the two results (and errors) are
// identical in everything but timing.
func assertSameOutcome(t *testing.T, label string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr)) {
		t.Fatalf("%s: err %v, want %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !sameQuestions(got.Asked, want.Asked) {
		t.Fatalf("%s: question sequences diverged:\nbatch: %v\nsolo:  %v", label, got.Asked, want.Asked)
	}
	if got.Target != want.Target {
		t.Fatalf("%s: target %v, want %v", label, got.Target, want.Target)
	}
	if got.Questions != want.Questions || got.Interactions != want.Interactions ||
		got.Unknowns != want.Unknowns || got.Backtracks != want.Backtracks {
		t.Fatalf("%s: counters diverged: batch %+v vs solo %+v", label, got, want)
	}
	if !sameMemberIndexes(got.Candidates, want.Candidates) {
		t.Fatalf("%s: candidates diverged", label)
	}
}

// batchVsSolo drives a batch (one member per oracle) and N solo sessions
// with identical options and per-member oracles, and pins every member to
// its solo twin's exact question sequence and outcome.
func batchVsSolo(t *testing.T, c *dataset.Collection, f strategy.Factory,
	seeds [][]dataset.Entity, mkOracle func(i int) Oracle, mut func(*Options)) *Batch {
	t.Helper()
	var opts Options
	if mut != nil {
		mut(&opts)
	}
	b, err := NewBatch(c, seeds, f, opts)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	oracles := make([]Oracle, len(seeds))
	for i := range oracles {
		oracles[i] = mkOracle(i)
	}
	driveBatch(t, b, oracles)
	for i := range seeds {
		sOpts := Options{Strategy: f.New()}
		if mut != nil {
			mut(&sOpts)
		}
		solo, err := NewSession(c, seeds[i], sOpts)
		if err != nil {
			t.Fatalf("solo member %d: %v", i, err)
		}
		driveSolo(t, solo, mkOracle(i))
		bRes, bErr := b.Member(i).Result()
		sRes, sErr := solo.Result()
		assertSameOutcome(t, f.Name(), bRes, bErr, sRes, sErr)
	}
	return b
}

// TestBatchOfOneMatchesSession is the PR 2 equivalence guarantee carried
// over to batch members: a Batch of size 1 asks byte-identical question
// sequences and produces identical results to a plain Session, across
// strategies and every target.
func TestBatchOfOneMatchesSession(t *testing.T) {
	sc, err := synth.Generate(synth.Params{N: 50, SizeMin: 8, SizeMax: 12, Alpha: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*dataset.Collection{testutil.PaperCollection(), sc} {
		factories := []strategy.Factory{
			strategy.NewKLP(cost.AD, 2),
			strategy.NewGainK(2),
			strategy.MostEven{},
		}
		for _, f := range factories {
			for _, target := range c.Sets() {
				target := target
				batchVsSolo(t, c, f, [][]dataset.Entity{nil},
					func(int) Oracle { return TargetOracle{target} }, nil)
			}
		}
	}
}

// TestBatchMembersMatchSoloSessions is the divergence half of the
// equivalence proof: members with different targets split into different
// states round by round, and every one of them must still ask exactly its
// solo twin's questions.
func TestBatchMembersMatchSoloSessions(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	seeds := make([][]dataset.Entity, c.Len())
	targets := c.Sets()
	b := batchVsSolo(t, c, f, seeds,
		func(i int) Oracle { return TargetOracle{targets[i]} }, nil)
	st := b.Stats()
	if st.Selections == 0 {
		t.Fatalf("batch computed no selections: %+v", st)
	}
}

// TestBatchWithUnknownsAndMultiQuestionInteractions covers the features
// that bend the batch's sharing: "don't know" members bypass the
// selection memo (their exclusion sets are per-member), and §6
// multiple-choice interactions put several questions into one selection.
func TestBatchWithUnknownsAndMultiQuestionInteractions(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	targets := c.Sets()
	seeds := make([][]dataset.Entity, c.Len())
	// Odd members answer their first question "don't know".
	mkUnsure := func(i int) Oracle {
		inner := TargetOracle{targets[i]}
		if i%2 == 0 {
			return inner
		}
		first := true
		return OracleFunc(func(e dataset.Entity) Answer {
			if first {
				first = false
				return Unknown
			}
			return inner.Answer(e)
		})
	}
	batchVsSolo(t, c, f, seeds, mkUnsure, nil)
	batchVsSolo(t, c, f, seeds,
		func(i int) Oracle { return TargetOracle{targets[i]} },
		func(o *Options) { o.BatchSize = 3 })
}

// TestBatchWithBacktracking drives noisy oracles through §6
// confirm-and-recover inside a batch: trails retain pre-partition
// candidate sets, the hardest case for the release discipline.
func TestBatchWithBacktracking(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	targets := c.Sets()
	seeds := make([][]dataset.Entity, c.Len())
	for trial := 0; trial < 5; trial++ {
		trial := trial
		b := batchVsSolo(t, c, f, seeds,
			func(i int) Oracle {
				return &NoisyOracle{Inner: TargetOracle{targets[i]}, P: 0.2,
					R: rng.New(uint64(trial)*1000 + uint64(i))}
			},
			func(o *Options) {
				o.Backtrack = true
				o.ConfirmTarget = true
				o.MaxQuestions = 200
				o.MaxBacktracks = 200
			})
		// Everything except the members' escaped final candidate sets must
		// be back in the members' scratches.
		if out := outstanding(b); out > int64(b.Len()) {
			t.Fatalf("trial %d: %d pooled bitsets outstanding, want <= %d members",
				trial, out, b.Len())
		}
	}
}

// TestBatchAmortisesSelections is the acceptance pin: 64 members with
// identical seeds and identical answers must cost exactly a single
// session's selection computations — not 64× — and certainly no more than
// the issue's 2× bound.
func TestBatchAmortisesSelections(t *testing.T) {
	c := testutil.PaperCollection()
	target := c.Sets()[c.Len()-1]
	const n = 64

	var soloCount int64
	soloF := countingFactory{inner: strategy.NewKLP(cost.AD, 2), n: &soloCount}
	solo, err := NewSession(c, nil, Options{Strategy: soloF.New()})
	if err != nil {
		t.Fatal(err)
	}
	driveSolo(t, solo, TargetOracle{target})
	if soloCount == 0 {
		t.Fatal("solo session did no selections")
	}

	var batchCount int64
	batchF := countingFactory{inner: strategy.NewKLP(cost.AD, 2), n: &batchCount}
	b, err := NewBatch(c, make([][]dataset.Entity, n), batchF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]Oracle, n)
	for i := range oracles {
		oracles[i] = TargetOracle{target}
	}
	driveBatch(t, b, oracles)

	if batchCount > 2*soloCount {
		t.Fatalf("batch of %d identical sessions computed %d selections, want <= 2x solo's %d",
			n, batchCount, soloCount)
	}
	if batchCount != soloCount {
		t.Errorf("batch of %d identical sessions computed %d selections, want exactly solo's %d",
			n, batchCount, soloCount)
	}
	st := b.Stats()
	if st.Selections != batchCount {
		t.Errorf("Stats().Selections = %d, counting strategy saw %d", st.Selections, batchCount)
	}
	if want := int64(n-1) * soloCount; st.SelectionsShared != want {
		t.Errorf("Stats().SelectionsShared = %d, want %d", st.SelectionsShared, want)
	}
	for i := 0; i < n; i++ {
		res, err := b.Member(i).Result()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if res.Target != target {
			t.Fatalf("member %d discovered %v, want %s", i, res.Target, target.Name)
		}
	}
	// The scratches hold exactly the escaped results (one per member whose
	// final candidate set came from the pool), nothing else.
	if out := outstanding(b); out > int64(n) {
		t.Fatalf("%d pooled bitsets outstanding, want <= %d", out, n)
	}
}

// contradictionCollection is built so a 2-question interaction can empty
// the candidate set: both X and Y contain a and b, so after "a: yes" the
// batched question b — chosen against the wider initial state — is constant
// over the remaining candidates and "b: no" rules out everything.
func contradictionCollection(t *testing.T) *dataset.Collection {
	t.Helper()
	c, err := dataset.NewBuilder().
		Add("X", []string{"a", "b"}).
		Add("Y", []string{"a", "b", "c"}).
		Add("Z", []string{"c", "d"}).
		Add("W", []string{"d"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// contradictionOracle answers yes to a, no to everything else, and rejects
// every confirmation — driving sessions into the abandoned-batch
// contradiction path (and, with backtracking, into recovery).
func contradictionOracle(c *dataset.Collection) Oracle {
	a, _ := c.Dict().Lookup("a")
	return OracleFunc(func(e dataset.Entity) Answer {
		if e == a {
			return Yes
		}
		return No
	})
}

// TestSessionContradictionLeakFree is the satellite audit: the
// abandoned-batch path (batch = nil on contradiction) and the
// backtracking-exhausted path must hand every pooled subset back — the
// emptied candidate set, the not-yet-asked halves and the whole trail.
func TestSessionContradictionLeakFree(t *testing.T) {
	c := contradictionCollection(t)
	t.Run("no-backtracking", func(t *testing.T) {
		s, err := NewSession(c, nil, Options{Strategy: strategy.MostEven{}.New(), BatchSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		driveSolo(t, s, contradictionOracle(c))
		if _, err := s.Result(); !errors.Is(err, ErrContradiction) {
			t.Fatalf("want ErrContradiction, got %v", err)
		}
		if out := s.scratch.Pool().Stats().Outstanding(); out != 0 {
			t.Fatalf("contradiction session leaked %d pooled bitsets", out)
		}
	})
	t.Run("backtracking-exhausted", func(t *testing.T) {
		rejecting := struct {
			Oracle
			ConfirmerFunc
		}{contradictionOracle(c), func(*dataset.Set) bool { return false }}
		s, err := NewSession(c, nil, Options{
			Strategy:      strategy.MostEven{}.New(),
			BatchSize:     2,
			Backtrack:     true,
			MaxBacktracks: 3,
			ConfirmTarget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		driveSolo(t, s, rejecting)
		if _, err := s.Result(); !errors.Is(err, ErrContradiction) {
			t.Fatalf("want ErrContradiction, got %v", err)
		}
		if out := s.scratch.Pool().Stats().Outstanding(); out != 0 {
			t.Fatalf("exhausted-backtracking session leaked %d pooled bitsets", out)
		}
	})
}

// ConfirmerFunc adapts a function to the Confirmer interface for tests.
type ConfirmerFunc func(*dataset.Set) bool

func (f ConfirmerFunc) Confirm(s *dataset.Set) bool { return f(s) }

// TestBatchContradictionLeakFree runs the same contradiction workload as a
// batch: members abandon their batches, and every pooled bitset must come
// back to the members' scratches once all members fail.
func TestBatchContradictionLeakFree(t *testing.T) {
	c := contradictionCollection(t)
	const n = 8
	b, err := NewBatch(c, make([][]dataset.Entity, n), strategy.MostEven{}, Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]Oracle, n)
	for i := range oracles {
		oracles[i] = contradictionOracle(c)
	}
	driveBatch(t, b, oracles)
	for i := 0; i < n; i++ {
		if _, err := b.Member(i).Result(); !errors.Is(err, ErrContradiction) {
			t.Fatalf("member %d: want ErrContradiction, got %v", i, err)
		}
	}
	if out := outstanding(b); out != 0 {
		t.Fatalf("contradiction batch leaked %d pooled bitsets", out)
	}
}

// TestNewBatchValidation pins the construction contract.
func TestNewBatchValidation(t *testing.T) {
	c := testutil.PaperCollection()
	if _, err := NewBatch(c, nil, strategy.MostEven{}, Options{}); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := NewBatch(c, make([][]dataset.Entity, 1), nil, Options{}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := NewBatch(c, make([][]dataset.Entity, 1), strategy.MostEven{},
		Options{Strategy: strategy.MostEven{}}); err == nil {
		t.Fatal("pre-set Options.Strategy accepted")
	}
}

// TestBatchStatsCountExclusionPath: a member with "don't know" exclusions
// computes selections outside the shared memo, and Stats().Selections must
// count those too — pinned against a counting strategy across a batch
// where one member answers Unknown first.
func TestBatchStatsCountExclusionPath(t *testing.T) {
	c := testutil.PaperCollection()
	target := c.Sets()[c.Len()-1]
	var count int64
	f := countingFactory{inner: strategy.NewKLP(cost.AD, 2), n: &count}
	b, err := NewBatch(c, make([][]dataset.Entity, 2), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := TargetOracle{target}
	first := true
	unsure := OracleFunc(func(e dataset.Entity) Answer {
		if first {
			first = false
			return Unknown
		}
		return inner.Answer(e)
	})
	driveBatch(t, b, []Oracle{inner, unsure})
	st := b.Stats()
	if st.Selections != count {
		t.Fatalf("Stats().Selections = %d, counting strategy saw %d computations",
			st.Selections, count)
	}
}
