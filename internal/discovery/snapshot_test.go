package discovery

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
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
					if out := restored.scratch.Pool().Stats().Outstanding(); out > 1 {
						t.Fatalf("%s cut %d: %d pooled subsets outstanding after restore+finish",
							target.Name, cut, out)
					}
				}
			}
		})
	}
}

// treeWalkState encodes a prebuilt-tree walk's state as earlier releases
// wrote it: the state version, the done flag, a selection time of 1234 ns,
// then the asked log's entities and answers.
func treeWalkState(done bool, asked []Question) []byte {
	w := &stateWriter{}
	w.u8(stateVersion)
	w.bool(done)
	w.uvarint(1234)
	w.uvarint(uint64(len(asked)))
	for _, q := range asked {
		w.uvarint(uint64(q.Entity))
		w.u8(byte(q.Answer))
	}
	return w.buf
}

// TestTreeSessionSnapshotRestore: a tree walk's state, cut at every depth,
// replays onto a fresh session under the tree's factory, keeps the walk's
// counters and recorded selection time, and finishes on the walk's path. A
// walk stopped by a "don't know" replays as a session that asks on, and
// states no walk wrote are rejected.
func TestTreeSessionSnapshotRestore(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	tr := buildTree(t, c, f)
	replay := func(state []byte) (*Session, error) {
		s, err := NewSession(c, nil, Options{Strategy: f.New()})
		if err != nil {
			t.Fatal(err)
		}
		return s, ReplayTreeWalk(s, state)
	}
	for _, target := range c.Sets() {
		o := TargetOracle{target}
		walk, err := FollowTree(c, tr, o)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(walk.Asked); cut++ {
			done := cut == len(walk.Asked)
			s, err := replay(treeWalkState(done, walk.Asked[:cut]))
			if err != nil {
				t.Fatalf("%s cut %d: ReplayTreeWalk: %v", target.Name, cut, err)
			}
			if got := s.res.SelectionTime; got != 1234 {
				t.Errorf("%s cut %d: selection time %v, want the recorded 1.234µs", target.Name, cut, got)
			}
			if s.Questions() != cut {
				t.Errorf("%s cut %d: %d questions after the replay", target.Name, cut, s.Questions())
			}
			driveToEnd(t, s, o)
			res, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Target != walk.Target || res.Interactions != walk.Interactions ||
				!reflect.DeepEqual(res.Asked, walk.Asked) {
				t.Errorf("%s cut %d: restored session found %v after %v, the walk %v after %v",
					target.Name, cut, res.Target, res.Asked, walk.Target, walk.Asked)
			}
			if _, err := replay(treeWalkState(!done, walk.Asked[:cut])); err == nil {
				t.Errorf("%s cut %d: a wrong done flag was accepted", target.Name, cut)
			}
		}
	}

	// A "don't know" stopped the walk, so its state is done; the session
	// excludes the entity and finds the target.
	target := c.FindByName("S5")
	unknown := []Question{{Entity: tr.Root.Entity, Answer: Unknown}}
	s, err := replay(treeWalkState(true, unknown))
	if err != nil {
		t.Fatal(err)
	}
	next, done := s.Next()
	if done {
		t.Fatal("the session stopped at a replayed Unknown")
	}
	driveToEnd(t, s, TargetOracle{target})
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != target || res.Unknowns != 1 || !reflect.DeepEqual(res.Asked[:1], unknown) {
		t.Errorf("after a replayed root Unknown: %v found after %v with %d unknowns", res.Target, res.Asked, res.Unknowns)
	}
	for name, state := range map[string][]byte{
		"not done after an Unknown":   treeWalkState(false, unknown),
		"a question after an Unknown": treeWalkState(true, append(unknown, Question{Entity: next, Answer: No})),
		"trailing bytes":              append(treeWalkState(true, unknown), 0),
		"state version 2":             append([]byte{stateVersionGroup}, treeWalkState(true, unknown)[1:]...),
	} {
		if _, err := replay(state); !errors.Is(err, errCorruptState) {
			t.Errorf("%s: err = %v, want a corrupt state", name, err)
		}
	}
}

// TestTreeSessionSnapshotWrongTree: a walk's state replayed onto a session
// that asks another tree's questions is rejected instead of walking wrongly.
func TestTreeSessionSnapshotWrongTree(t *testing.T) {
	c := testutil.PaperCollection()
	tr := buildTree(t, c, strategy.NewKLP(cost.AD, 2))
	other := buildTree(t, c, strategy.Indg{})
	if tr.Root.Entity == other.Root.Entity && tr.Root.No.Entity == other.Root.No.Entity {
		t.Fatal("the strategies build trees with one path prefix; nothing to distinguish")
	}
	walk, err := FollowTree(c, tr, TargetOracle{c.FindByName("S5")})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(c, nil, Options{Strategy: strategy.Indg{}.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayTreeWalk(s, treeWalkState(false, walk.Asked[:2])); !errors.Is(err, errCorruptState) {
		t.Fatalf("state from a different tree: err = %v, want a corrupt state", err)
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
		b, err := NewBatch(c, seeds, Options{Strategy: f.New(), Memo: NewSelectionMemo(0)})
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
		restored, err := DecodeBatch(c, Options{Strategy: f.New(), Memo: NewSelectionMemo(0)}, orig.EncodeState())
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

// TestSnapshotDecodeRejectsUnwrittenFlags crafts, from real states, the
// flag combinations no session writes, and requires the decoder to reject
// each: a pending contradiction (every Answer that raises one resolves it
// before returning), an entity question pending outside an interaction's
// batch (entity questions are only asked from one), and a group session in
// a batch, holding batch entities (group sessions ask one subset per
// interaction and never fill the batch) or with a pending entity.
func TestSnapshotDecodeRejectsUnwrittenFlags(t *testing.T) {
	c := testutil.PaperCollection()
	entityOpts := func() Options { return Options{Strategy: strategy.NewKLP(cost.AD, 2).New()} }
	groupOpts := func() Options { return Options{Group: grouptest.Halving{}} }
	encode := func(opts Options) []byte {
		s, err := NewSession(c, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		state := s.EncodeState()
		if _, err := DecodeSession(c, opts, state); err != nil {
			t.Fatalf("valid state rejected: %v", err)
		}
		return state
	}
	entity, group := encode(entityOpts()), encode(groupOpts())

	// The flags byte follows the version and state bytes.
	const flagsAt = 2
	withFlags := func(state []byte, set, clear byte) []byte {
		out := bytes.Clone(state)
		out[flagsAt] = out[flagsAt]&^clear | set
		return out
	}
	// withBatch gives the group state's empty batch one entity. The batch
	// count follows the pending entity, the pending subset and the confirm
	// slot.
	withBatch := func(state []byte) []byte {
		r := &stateReader{data: state[flagsAt+1:]}
		if _, err := r.entity(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.u8(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.entities(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.uvarint(); err != nil {
			t.Fatal(err)
		}
		at := len(state) - len(r.data)
		if state[at] != 0 {
			t.Fatalf("group state has a batch of %d entities", state[at])
		}
		out := append(bytes.Clone(state[:at]), 1, 0)
		return append(out, state[at+1:]...)
	}

	// withPendingEntity sets the group state's pending entity, which
	// follows the flags byte, to 1.
	withPendingEntity := func(state []byte) []byte {
		if state[flagsAt+1] != 0 {
			t.Fatalf("group state has pending entity %d", state[flagsAt+1])
		}
		out := bytes.Clone(state)
		out[flagsAt+1] = 1
		return out
	}

	for _, tc := range []struct {
		name  string
		opts  func() Options
		state []byte
	}{
		{"entity-contradiction", entityOpts, withFlags(entity, 2, 0)},
		{"group-contradiction", groupOpts, withFlags(group, 2, 0)},
		{"entity-asking-outside-batch", entityOpts, withFlags(entity, 0, 1)},
		{"group-in-batch", groupOpts, withFlags(group, 1, 0)},
		{"group-batch-entities", groupOpts, withBatch(group)},
		{"group-pending-entity", groupOpts, withPendingEntity(group)},
	} {
		if _, err := DecodeSession(c, tc.opts(), tc.state); !errors.Is(err, errCorruptState) {
			t.Errorf("%s: DecodeSession error %v, want %v", tc.name, err, errCorruptState)
		}
	}
}
