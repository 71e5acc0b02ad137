package discovery

import (
	"errors"
	"reflect"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
)

// driveSession pumps a Session by hand the way a remote client would —
// fetch question, answer, repeat — and returns the outcome plus the asked
// entities in order.
func driveSession(t *testing.T, c *dataset.Collection, initial []dataset.Entity, o Oracle, opts Options) (*Result, error, []dataset.Entity) {
	t.Helper()
	s, err := NewSession(c, initial, opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var asked []dataset.Entity
	for !s.Done() {
		if set, ok := s.PendingConfirm(); ok {
			a := No
			if conf, isConf := o.(Confirmer); isConf && conf.Confirm(set) {
				a = Yes
			}
			if err := s.Answer(a); err != nil {
				t.Fatalf("Answer(confirm): %v", err)
			}
			continue
		}
		e, done := s.Next()
		if done {
			break
		}
		// Next must be idempotent: a client may re-fetch its question.
		if e2, done2 := s.Next(); e2 != e || done2 {
			t.Fatalf("Next not idempotent: (%v,%v) then (%v,%v)", e, false, e2, done2)
		}
		asked = append(asked, e)
		if err := s.Answer(o.Answer(e)); err != nil {
			t.Fatalf("Answer: %v", err)
		}
	}
	res, rerr := s.Result()
	return res, rerr, asked
}

// flipOracle answers truthfully for Target except for the entities in Flip,
// where it lies — a deterministic stand-in for NoisyOracle so that two
// independent runs see identical answer streams. Confirmation is truthful.
type flipOracle struct {
	Target *dataset.Set
	Flip   map[dataset.Entity]bool
}

func (o flipOracle) Answer(e dataset.Entity) Answer {
	truth := o.Target.Contains(e)
	if o.Flip[e] {
		truth = !truth
	}
	if truth {
		return Yes
	}
	return No
}

func (o flipOracle) Confirm(s *dataset.Set) bool { return s == o.Target }

// TestSessionMatchesRun asserts the acceptance criterion that a manually
// driven Session asks byte-identical question sequences to Run for the same
// collection, options and oracle, across the §6 variants: plain, batched,
// "don't know" answers, halt conditions, and backtracking with a lying
// oracle plus confirmation.
func TestSessionMatchesRun(t *testing.T) {
	c := testutil.PaperCollection()
	unsure := map[dataset.Entity]bool{
		testutil.Entity(c, "c"): true,
		testutil.Entity(c, "d"): true,
	}
	cases := []struct {
		name   string
		opts   func() Options
		oracle func(target *dataset.Set) Oracle
	}{
		{"klp", func() Options { return Options{Strategy: strategy.NewKLP(cost.AD, 2)} },
			func(target *dataset.Set) Oracle { return TargetOracle{target} }},
		{"mosteven-batch3", func() Options { return Options{Strategy: strategy.MostEven{}, BatchSize: 3} },
			func(target *dataset.Set) Oracle { return TargetOracle{target} }},
		{"unknown-answers", func() Options { return Options{Strategy: strategy.NewKLP(cost.H, 2)} },
			func(target *dataset.Set) Oracle {
				return UnsureOracle{Inner: TargetOracle{target}, Unsure: unsure}
			}},
		{"max-questions-1", func() Options { return Options{Strategy: strategy.MostEven{}, MaxQuestions: 1} },
			func(target *dataset.Set) Oracle { return TargetOracle{target} }},
		{"backtracking-liar", func() Options {
			return Options{Strategy: strategy.NewKLP(cost.AD, 2), Backtrack: true, ConfirmTarget: true}
		}, func(target *dataset.Set) Oracle {
			return flipOracle{Target: target, Flip: map[dataset.Entity]bool{testutil.Entity(c, "c"): true}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range c.Sets() {
				ran, runErr := Run(c, nil, tc.oracle(target), tc.opts())
				sres, serr, asked := driveSession(t, c, nil, tc.oracle(target), tc.opts())
				if !errors.Is(serr, runErr) && !errors.Is(runErr, serr) {
					t.Fatalf("%s: session err %v, Run err %v", target.Name, serr, runErr)
				}
				if runErr != nil {
					continue
				}
				if !reflect.DeepEqual(sres.Asked, ran.Asked) {
					t.Errorf("%s: asked log diverges:\nsession: %v\nrun:     %v",
						target.Name, sres.Asked, ran.Asked)
				}
				for i, q := range ran.Asked {
					if i < len(asked) && asked[i] != q.Entity {
						t.Errorf("%s: question %d: session asked %v, Run asked %v",
							target.Name, i, asked[i], q.Entity)
					}
				}
				if sres.Target != ran.Target {
					t.Errorf("%s: session target %v, Run target %v", target.Name, sres.Target, ran.Target)
				}
				if sres.Questions != ran.Questions || sres.Interactions != ran.Interactions ||
					sres.Unknowns != ran.Unknowns || sres.Backtracks != ran.Backtracks {
					t.Errorf("%s: counters diverge: session {q:%d i:%d u:%d b:%d} run {q:%d i:%d u:%d b:%d}",
						target.Name, sres.Questions, sres.Interactions, sres.Unknowns, sres.Backtracks,
						ran.Questions, ran.Interactions, ran.Unknowns, ran.Backtracks)
				}
				if !reflect.DeepEqual(sres.Candidates.Members(), ran.Candidates.Members()) {
					t.Errorf("%s: candidates diverge", target.Name)
				}
			}
		})
	}
}

func TestSessionNoCandidates(t *testing.T) {
	c := testutil.PaperCollection()
	e, g := testutil.Entity(c, "e"), testutil.Entity(c, "g")
	s, err := NewSession(c, []dataset.Entity{e, g}, Options{Strategy: strategy.MostEven{}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("session with impossible examples is not immediately done")
	}
	if _, err := s.Result(); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("Result err = %v, want ErrNoCandidates", err)
	}
}

func TestSessionMissingStrategy(t *testing.T) {
	c := testutil.PaperCollection()
	if _, err := NewSession(c, nil, Options{}); err == nil {
		t.Fatal("NewSession accepted empty options")
	}
}

func TestSessionAnswerMisuse(t *testing.T) {
	c := testutil.PaperCollection()
	s, err := NewSession(c, nil, Options{Strategy: strategy.MostEven{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Answer(Answer(42)); !errors.Is(err, ErrInvalidAnswer) {
		t.Errorf("invalid answer: err = %v, want ErrInvalidAnswer", err)
	}
	if got, _ := s.Result(); got.Questions != 0 {
		t.Errorf("rejected answer was counted: %d questions", got.Questions)
	}
	target := c.FindByName("S1")
	for !s.Done() {
		e, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(TargetOracle{target}.Answer(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Answer(Yes); !errors.Is(err, ErrSessionDone) {
		t.Errorf("answering done session: err = %v, want ErrSessionDone", err)
	}
}

// TestSessionSnapshotResult checks the mid-session Result snapshot narrows
// with the answers without disturbing the final outcome.
func TestSessionSnapshotResult(t *testing.T) {
	c := testutil.PaperCollection()
	target := c.FindByName("S5")
	s, err := NewSession(c, nil, Options{Strategy: strategy.NewKLP(cost.AD, 2)})
	if err != nil {
		t.Fatal(err)
	}
	last := c.Len() + 1
	for !s.Done() {
		snap, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Candidates.Size() > last {
			t.Fatalf("snapshot candidates grew: %d after %d", snap.Candidates.Size(), last)
		}
		if snap.Target != nil {
			t.Fatal("snapshot of unfinished session has a target")
		}
		last = snap.Candidates.Size()
		e, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(TargetOracle{target}.Answer(e)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != target {
		t.Fatalf("found %v, want %v", res.Target, target)
	}
}

// TestTreeSessionMatchesFollowTree: a tree session is a live session from
// no examples under the factory that built the tree. It asks FollowTree's
// questions for every target. At a "don't know" the two part ways: the walk
// stops with the subtree's sets as candidates, while the session excludes
// the entity and asks on.
func TestTreeSessionMatchesFollowTree(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 3)
	tr := buildTree(t, c, f)
	for _, target := range c.Sets() {
		want, err := FollowTree(c, tr, TargetOracle{target})
		if err != nil {
			t.Fatal(err)
		}
		got, err, _ := driveSession(t, c, nil, TargetOracle{target}, Options{Strategy: f.New()})
		if err != nil {
			t.Fatal(err)
		}
		if got.Target != want.Target || !reflect.DeepEqual(got.Asked, want.Asked) {
			t.Errorf("%s: tree session found %v after %v, FollowTree %v after %v",
				target.Name, got.Target, got.Asked, want.Target, want.Asked)
		}
	}

	target := c.FindByName("S5")
	oracle := UnsureOracle{Inner: TargetOracle{target}, Unsure: map[dataset.Entity]bool{tr.Root.Entity: true}}
	walk, err := FollowTree(c, tr, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if walk.Target != nil || walk.Candidates.Size() != c.Len() {
		t.Errorf("FollowTree after a root Unknown: target %v, %d candidates, want nil and %d",
			walk.Target, walk.Candidates.Size(), c.Len())
	}
	live, err, _ := driveSession(t, c, nil, oracle, Options{Strategy: f.New()})
	if err != nil {
		t.Fatal(err)
	}
	if live.Target != target || live.Unknowns != 1 {
		t.Errorf("tree session after a root Unknown: target %v with %d unknowns, want %s with 1",
			live.Target, live.Unknowns, target.Name)
	}
}
