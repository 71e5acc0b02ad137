package discovery

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
)

// stepOnce applies one oracle answer to whatever the session is suspended on
// (membership question or confirmation), reporting false once the session is
// done. Oracles must be pure functions of the entity (no per-call state) so
// that the original and a restored twin see identical answer streams.
func stepOnce(t *testing.T, s *Session, o Oracle) bool {
	t.Helper()
	if set, ok := s.PendingConfirm(); ok {
		a := No
		if conf, isConf := o.(Confirmer); isConf && conf.Confirm(set) {
			a = Yes
		}
		if err := s.Answer(a); err != nil {
			t.Fatalf("Answer(confirm): %v", err)
		}
		return true
	}
	e, done := s.Next()
	if done {
		return false
	}
	if err := s.Answer(o.Answer(e)); err != nil {
		t.Fatalf("Answer(%v): %v", e, err)
	}
	return true
}

// driveToEnd pumps the session to completion, returning the entities asked
// from this point on (confirmation questions excluded — those are compared
// through the counters and the Asked log).
func driveToEnd(t *testing.T, s *Session, o Oracle) []dataset.Entity {
	t.Helper()
	var asked []dataset.Entity
	for !s.Done() {
		if _, ok := s.PendingConfirm(); !ok {
			if e, done := s.Next(); !done {
				asked = append(asked, e)
			}
		}
		if !stepOnce(t, s, o) {
			break
		}
	}
	return asked
}

// compareOutcome fails unless two finished sessions agree on everything a
// Result reports.
func compareOutcome(t *testing.T, label string, got, want *Session) {
	t.Helper()
	gRes, gErr := got.Result()
	wRes, wErr := want.Result()
	if (gErr == nil) != (wErr == nil) {
		t.Fatalf("%s: restored err %v, original err %v", label, gErr, wErr)
	}
	if gErr != nil {
		if gErr.Error() != wErr.Error() {
			t.Fatalf("%s: error message diverged: %q vs %q", label, gErr, wErr)
		}
		return
	}
	if gRes.Target != wRes.Target {
		t.Errorf("%s: target %v vs %v", label, gRes.Target, wRes.Target)
	}
	if !reflect.DeepEqual(gRes.Asked, wRes.Asked) {
		t.Errorf("%s: asked log diverged:\nrestored: %v\noriginal: %v", label, gRes.Asked, wRes.Asked)
	}
	if gRes.Questions != wRes.Questions || gRes.Interactions != wRes.Interactions ||
		gRes.Unknowns != wRes.Unknowns || gRes.Backtracks != wRes.Backtracks {
		t.Errorf("%s: counters diverged: restored {q:%d i:%d u:%d b:%d} original {q:%d i:%d u:%d b:%d}",
			label, gRes.Questions, gRes.Interactions, gRes.Unknowns, gRes.Backtracks,
			wRes.Questions, wRes.Interactions, wRes.Unknowns, wRes.Backtracks)
	}
	if !sameMemberIndexes(gRes.Candidates, wRes.Candidates) {
		t.Errorf("%s: candidates diverged: %v vs %v",
			label, gRes.Candidates.Members(), wRes.Candidates.Members())
	}
}

// TestSessionSnapshotRestoreEquivalence is the tentpole acceptance test: a
// session suspended at ANY point (including mid-interaction of a
// multiple-choice batch, pending confirmation, and after completion),
// serialized and restored, asks exactly the remaining questions of its
// never-suspended twin and finishes with the same counters and Result —
// across strategies, "don't know" answers and noisy backtracking.
func TestSessionSnapshotRestoreEquivalence(t *testing.T) {
	c := testutil.PaperCollection()
	unsure := map[dataset.Entity]bool{
		testutil.Entity(c, "c"): true,
		testutil.Entity(c, "d"): true,
	}
	klp := strategy.NewKLP(cost.AD, 2)
	klpH := strategy.NewKLP(cost.H, 2)
	cases := []struct {
		name   string
		opts   func() Options
		oracle func(target *dataset.Set) Oracle
	}{
		{"klp", func() Options { return Options{Strategy: klp.New()} },
			func(target *dataset.Set) Oracle { return TargetOracle{target} }},
		{"mosteven-batch3", func() Options { return Options{Strategy: strategy.MostEven{}, BatchSize: 3} },
			func(target *dataset.Set) Oracle { return TargetOracle{target} }},
		{"unknown-answers", func() Options { return Options{Strategy: klpH.New()} },
			func(target *dataset.Set) Oracle {
				return UnsureOracle{Inner: TargetOracle{target}, Unsure: unsure}
			}},
		{"max-questions-2", func() Options { return Options{Strategy: strategy.MostEven{}, MaxQuestions: 2} },
			func(target *dataset.Set) Oracle { return TargetOracle{target} }},
		{"backtracking-liar", func() Options {
			return Options{Strategy: klp.New(), Backtrack: true, ConfirmTarget: true}
		}, func(target *dataset.Set) Oracle {
			return flipOracle{Target: target, Flip: map[dataset.Entity]bool{testutil.Entity(c, "c"): true}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range c.Sets() {
				// Reference: how many suspension points does this discovery
				// have? (Every answer — membership or confirmation — is one.)
				ref, err := NewSession(c, nil, tc.opts())
				if err != nil {
					t.Fatal(err)
				}
				refOracle := tc.oracle(target)
				steps := 0
				for !ref.Done() && stepOnce(t, ref, refOracle) {
					steps++
				}
				for cut := 0; cut <= steps+1; cut++ {
					orig, err := NewSession(c, nil, tc.opts())
					if err != nil {
						t.Fatal(err)
					}
					o := tc.oracle(target)
					for i := 0; i < cut && !orig.Done(); i++ {
						stepOnce(t, orig, o)
					}
					state := orig.EncodeState()
					restored, err := DecodeSession(c, tc.opts(), state)
					if err != nil {
						t.Fatalf("%s cut %d: DecodeSession: %v", target.Name, cut, err)
					}
					gotAsked := driveToEnd(t, restored, o)
					wantAsked := driveToEnd(t, orig, o)
					if !reflect.DeepEqual(gotAsked, wantAsked) {
						t.Fatalf("%s cut %d: remaining questions diverged:\nrestored: %v\noriginal: %v",
							target.Name, cut, gotAsked, wantAsked)
					}
					compareOutcome(t, target.Name, restored, orig)
					// The restored session must leave no pooled subsets behind
					// beyond the final (unpooled) candidate set.
					if restored.scratch != nil {
						if out := restored.scratch.Pool().Stats().Outstanding(); out > 1 {
							t.Fatalf("%s cut %d: %d pooled subsets outstanding after restore+finish",
								target.Name, cut, out)
						}
					}
				}
			}
		})
	}
}

// TestTreeSessionSnapshotRestore pins the tree-walk counterpart: a walk
// suspended at every depth restores onto the same tree and finishes
// identically, and the unknown-stopped walk round-trips as done.
func TestTreeSessionSnapshotRestore(t *testing.T) {
	c := testutil.PaperCollection()
	tr := buildTree(t, c, strategy.NewKLP(cost.AD, 2))
	for _, target := range c.Sets() {
		o := TargetOracle{target}
		ref := NewTreeSession(c, tr)
		total := 0
		for !ref.Done() {
			e, done := ref.Next()
			if done {
				break
			}
			total++
			if err := ref.Answer(o.Answer(e)); err != nil {
				t.Fatal(err)
			}
		}
		for cut := 0; cut <= total; cut++ {
			orig := NewTreeSession(c, tr)
			for i := 0; i < cut && !orig.Done(); i++ {
				e, _ := orig.Next()
				if err := orig.Answer(o.Answer(e)); err != nil {
					t.Fatal(err)
				}
			}
			restored, err := DecodeTreeSession(c, tr, orig.EncodeState())
			if err != nil {
				t.Fatalf("%s cut %d: DecodeTreeSession: %v", target.Name, cut, err)
			}
			for !restored.Done() {
				eR, doneR := restored.Next()
				eO, doneO := orig.Next()
				if eR != eO || doneR != doneO {
					t.Fatalf("%s cut %d: next question diverged: (%v,%v) vs (%v,%v)",
						target.Name, cut, eR, doneR, eO, doneO)
				}
				if doneR {
					break
				}
				if err := restored.Answer(o.Answer(eR)); err != nil {
					t.Fatal(err)
				}
				if err := orig.Answer(o.Answer(eO)); err != nil {
					t.Fatal(err)
				}
			}
			gRes, _ := restored.Result()
			wRes, _ := orig.Result()
			if gRes.Target != wRes.Target || gRes.Questions != wRes.Questions ||
				!reflect.DeepEqual(gRes.Asked, wRes.Asked) {
				t.Errorf("%s cut %d: outcomes diverged: %+v vs %+v", target.Name, cut, gRes, wRes)
			}
		}
	}

	// Unknown stops the walk; the done state must round-trip.
	s := NewTreeSession(c, tr)
	if err := s.Answer(Unknown); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeTreeSession(c, tr, s.EncodeState())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Done() {
		t.Fatal("restored unknown-stopped walk is not done")
	}
	gRes, _ := restored.Result()
	wRes, _ := s.Result()
	if gRes.Target != wRes.Target || gRes.Unknowns != wRes.Unknowns ||
		!sameMemberIndexes(gRes.Candidates, wRes.Candidates) {
		t.Errorf("unknown-stopped walk diverged after restore: %+v vs %+v", gRes, wRes)
	}
}

// TestTreeSessionSnapshotWrongTree: state captured on one tree must be
// rejected by a structurally different tree instead of walking it wrongly.
func TestTreeSessionSnapshotWrongTree(t *testing.T) {
	c := testutil.PaperCollection()
	tr := buildTree(t, c, strategy.NewKLP(cost.AD, 2))
	other := buildTree(t, c, strategy.Indg{})
	s := NewTreeSession(c, tr)
	o := TargetOracle{c.FindByName("S5")}
	for i := 0; i < 2; i++ {
		e, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(o.Answer(e)); err != nil {
			t.Fatal(err)
		}
	}
	if same := func() bool { // only meaningful when the trees actually differ on the path
		a, b := tr.Root, other.Root
		return a.Entity == b.Entity && a.Yes.Entity == b.Yes.Entity && a.No.Entity == b.No.Entity
	}(); same {
		t.Skip("strategies produced identical tree prefixes; nothing to distinguish")
	}
	if _, err := DecodeTreeSession(c, other, s.EncodeState()); err == nil {
		t.Fatal("state from a different tree was accepted")
	}
}

// TestBatchSnapshotRestore suspends a whole batch mid-round-robin, restores
// it, and checks every member finishes identically to the uninterrupted
// batch — including the batch's selection counters carrying over.
func TestBatchSnapshotRestore(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	targets := c.Sets()
	seeds := make([][]dataset.Entity, len(targets))
	mkBatch := func() *Batch {
		b, err := NewBatch(c, seeds, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	runRound := func(b *Batch) bool {
		progressed := false
		for i := 0; i < b.Len(); i++ {
			m := b.Member(i)
			if m.Done() {
				continue
			}
			e, done := m.Next()
			if done {
				continue
			}
			if err := b.Answer(i, TargetOracle{targets[i]}.Answer(e)); err != nil {
				t.Fatal(err)
			}
			progressed = true
		}
		return progressed
	}

	ref := mkBatch()
	rounds := 0
	for !ref.Done() && runRound(ref) {
		rounds++
	}
	for cut := 0; cut <= rounds; cut++ {
		orig := mkBatch()
		for i := 0; i < cut; i++ {
			runRound(orig)
		}
		restored, err := DecodeBatch(c, f, Options{}, orig.EncodeState())
		if err != nil {
			t.Fatalf("cut %d: DecodeBatch: %v", cut, err)
		}
		if restored.Stats() != orig.Stats() {
			t.Errorf("cut %d: stats did not carry over: %+v vs %+v", cut, restored.Stats(), orig.Stats())
		}
		for !restored.Done() && runRound(restored) {
		}
		for !orig.Done() && runRound(orig) {
		}
		for i := 0; i < restored.Len(); i++ {
			compareOutcome(t, targets[i].Name, restored.Member(i), orig.Member(i))
		}
		// Every member's final candidate set is unpooled by Result; the
		// members' scratches must hold nothing else.
		if out := outstanding(restored); out > int64(restored.Len()) {
			t.Errorf("cut %d: %d pooled subsets outstanding after batch finish", cut, out)
		}
	}
}

// TestSnapshotDecodeRejectsGarbage exercises the decoder's defenses: every
// truncation of a valid state, bit flips, a wrong version byte and a foreign
// collection must produce an error (never a panic, never a quietly wrong
// session).
func TestSnapshotDecodeRejectsGarbage(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	mkOpts := func() Options { return Options{Strategy: f.New()} }
	s, err := NewSession(c, nil, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := TargetOracle{c.FindByName("S4")}
	stepOnce(t, s, o)
	stepOnce(t, s, o)
	state := s.EncodeState()

	if _, err := DecodeSession(c, mkOpts(), state); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for cut := 0; cut < len(state); cut++ {
		if _, err := DecodeSession(c, mkOpts(), state[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	bad := append([]byte(nil), state...)
	bad[0] = 99
	if _, err := DecodeSession(c, mkOpts(), bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version accepted: %v", err)
	}
	if _, err := DecodeSession(c, mkOpts(), append(append([]byte(nil), state...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// A collection of a different size: the subset encoding (capacity is
	// part of the candidate-set fingerprint) must not decode. Same-size
	// foreign collections are caught one layer up, by the public envelope's
	// collection content fingerprint.
	other, err := dataset.FromIDSets(
		[]string{"A", "B", "C", "D"},
		[][]dataset.Entity{{0}, {0, 1}, {0, 2}, {1, 2}}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSession(other, mkOpts(), state); err == nil {
		t.Fatal("state restored over a foreign collection")
	} else if !errors.Is(err, errCorruptState) {
		t.Fatalf("foreign collection error not a corrupt-state error: %v", err)
	}
}
