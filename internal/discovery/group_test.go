package discovery

import (
	"bytes"
	"errors"
	"testing"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
)

func groupOpts(mut func(*Options)) Options {
	opts := Options{Group: grouptest.Halving{}}
	if mut != nil {
		mut(&opts)
	}
	return opts
}

// driveGroup pumps a group session with a truthful oracle until done,
// returning the asked log.
func driveGroup(t *testing.T, s *Session, o GroupOracle) []Question {
	t.Helper()
	confirmer, _ := o.(Confirmer)
	for i := 0; !s.Done(); i++ {
		if i > 10000 {
			t.Fatal("group session does not converge")
		}
		if set, ok := s.PendingConfirm(); ok {
			a := No
			if confirmer != nil && confirmer.Confirm(set) {
				a = Yes
			}
			if err := s.Answer(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		members, sem, ok := s.PendingSubset()
		if !ok {
			t.Fatalf("group session suspended without a subset question (state %v)", s.state)
		}
		if len(members) == 0 {
			t.Fatal("empty subset question")
		}
		if err := s.Answer(o.AnswerSubset(members, sem)); err != nil {
			t.Fatal(err)
		}
	}
	return s.res.Asked
}

func TestGroupSessionDiscoversEveryTarget(t *testing.T) {
	c := testutil.PaperCollection()
	for _, target := range c.Sets() {
		s, err := NewSession(c, nil, groupOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		driveGroup(t, s, TargetOracle{target})
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != target {
			t.Fatalf("discovered %v, want %s", res.Target, target.Name)
		}
		if out := s.scratch.Pool().Stats().Outstanding(); out > 1 {
			t.Fatalf("target %s: %d pooled subsets outstanding, want ≤ 1", target.Name, out)
		}
	}
}

func TestGroupRunMatchesSession(t *testing.T) {
	c := testutil.PaperCollection()
	for _, target := range c.Sets() {
		res, err := Run(c, nil, TargetOracle{target}, groupOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != target {
			t.Fatalf("Run discovered %v, want %s", res.Target, target.Name)
		}
		for _, q := range res.Asked {
			if q.Subset == nil {
				t.Fatalf("group run asked an entity question: %+v", q)
			}
		}
	}
}

func TestGroupRunRequiresGroupOracle(t *testing.T) {
	c := testutil.PaperCollection()
	plain := OracleFunc(func(e dataset.Entity) Answer { return No })
	if _, err := Run(c, nil, plain, groupOpts(nil)); err == nil {
		t.Fatal("Run accepted a non-group oracle for a group session")
	}
}

func TestGroupUnknownExcludesAllMembers(t *testing.T) {
	c := testutil.PaperCollection()
	s, err := NewSession(c, nil, groupOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	members, _, ok := s.PendingSubset()
	if !ok {
		t.Fatal("no pending subset")
	}
	first := append([]dataset.Entity(nil), members...)
	if err := s.Answer(Unknown); err != nil {
		t.Fatal(err)
	}
	for _, e := range first {
		if !s.excluded[e] {
			t.Fatalf("entity %d of the unknown subset not excluded", e)
		}
	}
	if s.res.Unknowns != 1 {
		t.Fatalf("Unknowns = %d, want 1", s.res.Unknowns)
	}
	if next, _, ok := s.PendingSubset(); ok {
		for _, e := range next {
			for _, x := range first {
				if e == x {
					t.Fatalf("excluded entity %d re-proposed", e)
				}
			}
		}
	}
}

func TestGroupBacktrackingUnderLyingOracle(t *testing.T) {
	c := testutil.PaperCollection()
	backtracked := false
	for _, target := range c.Sets() {
		for trial := uint64(0); trial < 10; trial++ {
			o := &NoisyOracle{Inner: TargetOracle{target}, P: 0.3, R: rng.New(trial*100 + uint64(target.Index))}
			res, err := Run(c, nil, o, groupOpts(func(opts *Options) {
				opts.Backtrack = true
				opts.ConfirmTarget = true
				opts.MaxQuestions = 200
				opts.MaxBacktracks = 200
			}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Target != target {
				t.Fatalf("lying oracle (target %s, trial %d): discovered %v", target.Name, trial, res.Target)
			}
			backtracked = backtracked || res.Backtracks > 0
		}
	}
	if !backtracked {
		t.Fatal("no trial ever backtracked; the lying-oracle path is untested")
	}
}

// reopts builds fresh decode options equivalent to groupOpts(mut): decode
// must mint its own strategy instance, like any cross-process restore.
func reencode(t *testing.T, c *dataset.Collection, mut func(*Options), state []byte) []byte {
	t.Helper()
	restored, err := DecodeSession(c, groupOpts(mut), state)
	if err != nil {
		t.Fatalf("decoding mid-session state: %v", err)
	}
	return restored.EncodeState()
}

// TestGroupSnapshotByteIdentityAtEverySuspension is the satellite pin: at
// every suspension point of a group session — mid-subset-question, pending
// confirm, and with a backtracking trail holding subset entries — the
// snapshot decodes and re-encodes to identical bytes, and the restored
// session finishes identically to the undisturbed original.
func TestGroupSnapshotByteIdentityAtEverySuspension(t *testing.T) {
	c := testutil.PaperCollection()
	mut := func(opts *Options) {
		opts.Backtrack = true
		opts.ConfirmTarget = true
		opts.MaxBacktracks = 200
	}
	for _, target := range c.Sets() {
		for trial := uint64(0); trial < 6; trial++ {
			// A lying oracle exercises confirm rejections and subset trail
			// flips; trial 0 is the truthful path.
			var o GroupOracle = TargetOracle{target}
			if trial > 0 {
				o = &NoisyOracle{Inner: TargetOracle{target}, P: 0.3, R: rng.New(trial)}
			}
			s, err := NewSession(c, nil, groupOpts(mut))
			if err != nil {
				t.Fatal(err)
			}
			confirmer, _ := o.(Confirmer)
			sawConfirm, sawTrail := false, false
			for i := 0; !s.Done(); i++ {
				if i > 10000 {
					t.Fatal("no convergence")
				}
				state := s.EncodeState()
				if !bytes.Equal(state, reencode(t, c, mut, state)) {
					t.Fatalf("snapshot not byte-identical after restore (state %v, trail %d)",
						s.state, len(s.trail))
				}
				if set, ok := s.PendingConfirm(); ok {
					sawConfirm = true
					a := No
					if confirmer != nil && confirmer.Confirm(set) {
						a = Yes
					}
					if err := s.Answer(a); err != nil {
						t.Fatal(err)
					}
					continue
				}
				sawTrail = sawTrail || len(s.trail) > 0
				members, sem, ok := s.PendingSubset()
				if !ok {
					t.Fatal("suspended without subset question")
				}
				if err := s.Answer(o.AnswerSubset(members, sem)); err != nil {
					t.Fatal(err)
				}
			}
			// Terminal state round-trips too.
			state := s.EncodeState()
			if !bytes.Equal(state, reencode(t, c, mut, state)) {
				t.Fatal("terminal snapshot not byte-identical")
			}
			if !sawConfirm {
				t.Fatal("confirm suspension never reached")
			}
			if trial > 0 && !sawTrail {
				t.Log("note: lying trial produced no trail (oracle never lied)")
			}
		}
	}
}

// TestGroupRestoredSessionFinishesIdentically: restore mid-flight and drive
// both twins with the same oracle; asked logs and results must match.
func TestGroupRestoredSessionFinishesIdentically(t *testing.T) {
	c := testutil.PaperCollection()
	for _, target := range c.Sets() {
		s, err := NewSession(c, nil, groupOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		o := TargetOracle{target}
		// One answer in, then fork.
		members, sem, ok := s.PendingSubset()
		if !ok {
			t.Fatal("no opening question")
		}
		if err := s.Answer(o.AnswerSubset(members, sem)); err != nil {
			t.Fatal(err)
		}
		twin, err := DecodeSession(c, groupOpts(nil), s.EncodeState())
		if err != nil {
			t.Fatal(err)
		}
		asked := driveGroup(t, s, o)
		askedTwin := driveGroup(t, twin, o)
		if !sameQuestions(asked, askedTwin) {
			t.Fatalf("twins diverged:\noriginal: %v\nrestored: %v", asked, askedTwin)
		}
		res, _ := s.Result()
		resTwin, _ := twin.Result()
		if res.Target != resTwin.Target || res.Target != target {
			t.Fatalf("targets diverged: %v vs %v", res.Target, resTwin.Target)
		}
	}
}

func TestGroupStateVersionGates(t *testing.T) {
	c := testutil.PaperCollection()
	gs, err := NewSession(c, nil, groupOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	groupState := gs.EncodeState()
	if groupState[0] != stateVersionGroup {
		t.Fatalf("group state version %d, want %d", groupState[0], stateVersionGroup)
	}
	// Group state without group options is rejected...
	if _, err := DecodeSession(c, Options{Strategy: strategy.MostEven{}.New()}, groupState); err == nil {
		t.Fatal("group state decoded without group options")
	}
	// ...and vice versa.
	es, err := NewSession(c, nil, Options{Strategy: strategy.MostEven{}.New()})
	if err != nil {
		t.Fatal(err)
	}
	entityState := es.EncodeState()
	if entityState[0] != stateVersion {
		t.Fatalf("entity state version %d, want %d", entityState[0], stateVersion)
	}
	if _, err := DecodeSession(c, groupOpts(nil), entityState); err == nil {
		t.Fatal("entity state decoded with group options")
	}
	// Truncations of a group state never decode.
	for i := 1; i < len(groupState); i++ {
		if _, err := DecodeSession(c, groupOpts(nil), groupState[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
	// Every decode failure wraps the corrupt sentinel (or is an options
	// error, which the two gate checks above already proved).
	if _, err := DecodeSession(c, groupOpts(nil), []byte{stateVersionGroup, 9}); !errors.Is(err, errCorruptState) {
		t.Fatalf("bad state byte error = %v, want errCorruptState", err)
	}
}

func TestGroupBatchRoundTrip(t *testing.T) {
	c := testutil.PaperCollection()
	seeds := [][]dataset.Entity{nil, nil, nil}
	b, err := NewBatch(c, seeds, groupOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	targets := []*dataset.Set{c.Sets()[0], c.Sets()[3], c.Sets()[6]}
	// Answer one round, snapshot, restore, finish both.
	for i := 0; i < b.Len(); i++ {
		m := b.Member(i)
		members, sem, ok := m.PendingSubset()
		if !ok {
			t.Fatalf("member %d has no subset question", i)
		}
		if err := m.Answer(TargetOracle{targets[i]}.AnswerSubset(members, sem)); err != nil {
			t.Fatal(err)
		}
	}
	state := b.EncodeState()
	if state[0] != stateVersionGroup {
		t.Fatalf("group batch state version %d, want %d", state[0], stateVersionGroup)
	}
	b2, err := DecodeBatch(c, groupOpts(nil), state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, b2.EncodeState()) {
		t.Fatal("batch snapshot not byte-identical after restore")
	}
	for i := 0; i < b.Len(); i++ {
		a := driveGroup(t, b.Member(i), TargetOracle{targets[i]})
		b2q := driveGroup(t, b2.Member(i), TargetOracle{targets[i]})
		if !sameQuestions(a, b2q) {
			t.Fatalf("batch member %d diverged after restore", i)
		}
		res, err := b.Member(i).Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != targets[i] {
			t.Fatalf("member %d discovered %v, want %s", i, res.Target, targets[i].Name)
		}
	}
}
