package setdiscovery

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// singletonCollection64 is the acceptance workload from the issue: 64 sets,
// each holding one private marker entity. Entity questions can eliminate at
// most one candidate per round here; group questions halve the space.
func singletonCollection64(t *testing.T) *Collection {
	t.Helper()
	sets := make(map[string][]string, 64)
	for i := 0; i < 64; i++ {
		sets[fmt.Sprintf("S%02d", i)] = []string{fmt.Sprintf("m%02d", i)}
	}
	c, err := NewCollection(sets)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driveGroupSession pumps a public group session against a GroupOracle.
func driveGroupSession(t *testing.T, s *Session, o GroupOracle) {
	t.Helper()
	confirmer, _ := o.(Confirmer)
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("group session does not converge")
		}
		q, done := s.Next()
		if done {
			return
		}
		var a Answer
		switch {
		case q.IsConfirm():
			a = No
			if confirmer != nil && confirmer.Confirm(q.Confirm) {
				a = Yes
			}
		case q.IsSubset():
			a = o.AnswerSubset(q.Subset, q.Semantics)
		default:
			a = o.Answer(q.Entity)
		}
		if err := s.Answer(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupHalvingBeatsEntityQuestions is the issue's headline pin: on 64
// singleton sets the halving group strategy finds any target in at most 8
// set-valued questions (logarithmic), while the best entity strategy needs
// at least 20 questions on average (linear — each entity question eliminates
// one candidate).
func TestGroupHalvingBeatsEntityQuestions(t *testing.T) {
	c := singletonCollection64(t)
	names := c.Names()

	worstGroup := 0
	for _, name := range names {
		oracle, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Discover(nil, oracle, WithGroupStrategy("halving"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != name {
			t.Fatalf("halving discovered %q, want %q", res.Target, name)
		}
		if res.Questions > 8 {
			t.Fatalf("halving needed %d questions for %s, want ≤ 8", res.Questions, name)
		}
		if res.Questions > worstGroup {
			worstGroup = res.Questions
		}
	}

	for _, strat := range []string{"klp", "infogain", "most-even"} {
		total := 0
		for _, name := range names {
			oracle, err := c.TargetOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Discover(nil, oracle, WithStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}
			if res.Target != name {
				t.Fatalf("%s discovered %q, want %q", strat, res.Target, name)
			}
			total += res.Questions
		}
		if mean := float64(total) / float64(len(names)); mean < 20 {
			t.Fatalf("entity strategy %s averaged %.1f questions on singletons, want ≥ 20 (group worst case was %d)",
				strat, mean, worstGroup)
		}
	}
}

// culpritSets enumerates every dependency-closed non-empty subset of size
// ≤ 3 over eight modules a..h under the constraint "a implies b" — the
// realisable enabled-module states of a bisect search with one dependency.
func culpritSets() map[string][]string {
	mods := strings.Split("a b c d e f g h", " ")
	sets := make(map[string][]string)
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) > 0 {
			hasA, hasB := false, false
			for _, m := range cur {
				hasA = hasA || m == "a"
				hasB = hasB || m == "b"
			}
			if !hasA || hasB {
				sets["C"+strings.Join(cur, "")] = append([]string(nil), cur...)
			}
		}
		if len(cur) == 3 {
			return
		}
		for i := start; i < len(mods); i++ {
			rec(i+1, append(cur, mods[i]))
		}
	}
	rec(0, nil)
	return sets
}

// TestGroupAdditiveMultiCulprit pins the multi-culprit acceptance: the
// additive strategy finds the k=3 culprit set {a,b,c} — and every other
// realisable target — over realisable probes under the a→b dependency.
func TestGroupAdditiveMultiCulprit(t *testing.T) {
	c, err := NewCollection(culpritSets())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithGroupStrategy("additive"), WithGroupConstraint("a", "b")}
	for _, name := range append([]string{"Cabc"}, c.Names()...) {
		oracle, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Discover(nil, oracle, opts...)
		if err != nil {
			t.Fatalf("target %s: %v", name, err)
		}
		if res.Target != name {
			t.Fatalf("additive discovered %q, want %q", res.Target, name)
		}
	}
}

func TestGroupConstraintUnknownEntity(t *testing.T) {
	c := singletonCollection64(t)
	oracle, err := c.TargetOracle("S00")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Discover(nil, oracle,
		WithGroupStrategy("additive"), WithGroupConstraint("no-such-module", "m00"))
	if err == nil || !strings.Contains(err.Error(), "no-such-module") {
		t.Fatalf("unknown constraint entity accepted: %v", err)
	}
}

func TestGroupDiscoverRequiresGroupOracle(t *testing.T) {
	c := singletonCollection64(t)
	plain := OracleFunc(func(string) Answer { return No })
	if _, err := c.Discover(nil, plain, WithGroupStrategy("halving")); err == nil {
		t.Fatal("Discover accepted a plain Oracle for a group session")
	}
}

func TestGroupUnknownStrategyName(t *testing.T) {
	c := singletonCollection64(t)
	oracle, _ := c.TargetOracle("S00")
	if _, err := c.Discover(nil, oracle, WithGroupStrategy("no-such-strategy")); err == nil {
		t.Fatal("unknown group strategy accepted")
	}
}

// TestGroupSnapshotVersioning pins the envelope bump: group sessions emit
// version 3 (they must carry the group section to be restorable), while
// entity sessions keep emitting the pre-bump version-1 bytes — old readers
// and stored snapshots are unaffected by the feature shipping.
func TestGroupSnapshotVersioning(t *testing.T) {
	c := singletonCollection64(t)
	g, err := c.NewSession(nil, WithGroupStrategy("halving"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap[4] != 3 {
		t.Fatalf("group session snapshot version = %d, want 3", snap[4])
	}
	e, err := c.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	esnap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if esnap[4] != 1 {
		t.Fatalf("entity session snapshot version = %d, want pre-bump 1", esnap[4])
	}

	// A version-3 envelope with its group section truncated must be
	// rejected with ErrBadSnapshot, not misparsed as session state.
	for cut := len(snap) - 1; cut > 22; cut-- {
		if _, err := c.RestoreSession(snap[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncated group snapshot (%d bytes) error = %v, want ErrBadSnapshot", cut, err)
		}
	}
	// Restoring over a different collection is rejected by the fingerprint.
	other, err := NewCollection(culpritSets())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RestoreSession(snap); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("foreign-collection restore error = %v, want ErrBadSnapshot", err)
	}
}

// TestGroupSnapshotRestoreFinishesIdentically suspends a group session at
// every round, restores the snapshot, and requires byte-identical
// re-encoding plus an identical finish by the restored twin.
func TestGroupSnapshotRestoreFinishesIdentically(t *testing.T) {
	c := singletonCollection64(t)
	opts := []Option{WithGroupStrategy("halving"), WithBacktracking()}
	for _, name := range []string{"S00", "S31", "S63"} {
		oracle, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		g := oracle.(GroupOracle)
		s, err := c.NewSession(nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var twin *Session
		for i := 0; !s.Done(); i++ {
			if i > 10000 {
				t.Fatal("no convergence")
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := c.RestoreSession(snap)
			if err != nil {
				t.Fatal(err)
			}
			again, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, again) {
				t.Fatalf("snapshot not byte-identical after restore (round %d)", i)
			}
			if twin == nil && i == 2 {
				twin = restored
			}
			q, done := s.Next()
			if done {
				break
			}
			var a Answer
			switch {
			case q.IsConfirm():
				a = No
				if oracle.(Confirmer).Confirm(q.Confirm) {
					a = Yes
				}
			case q.IsSubset():
				a = g.AnswerSubset(q.Subset, q.Semantics)
			default:
				t.Fatalf("group session asked an entity question: %+v", q)
			}
			if err := s.Answer(a); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != name {
			t.Fatalf("discovered %q, want %q", res.Target, name)
		}
		if twin == nil {
			t.Fatal("session finished before round 2; no twin forked")
		}
		driveGroupSession(t, twin, g)
		twinRes, err := twin.Result()
		if err != nil {
			t.Fatal(err)
		}
		if twinRes.Target != res.Target || twinRes.Questions != res.Questions {
			t.Fatalf("restored twin diverged: %+v vs %+v", twinRes, res)
		}
	}
}

// TestGroupBatch drives a batch of group sessions to three different
// targets and round-trips the whole batch through Snapshot/RestoreBatch.
func TestGroupBatch(t *testing.T) {
	c := singletonCollection64(t)
	targets := []string{"S05", "S23", "S42"}
	seeds := make([]Seed, len(targets))
	b, err := c.NewBatch(seeds, WithGroupStrategy("halving"))
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]GroupOracle, len(targets))
	for i, name := range targets {
		o, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o.(GroupOracle)
	}
	// One round, then migrate the batch through a snapshot.
	for i := range targets {
		q, done := b.Question(i)
		if done || !q.IsSubset() {
			t.Fatalf("member %d: want a subset question, got %+v (done %v)", i, q, done)
		}
		if err := b.AnswerMember(i, oracles[i].AnswerSubset(q.Subset, q.Semantics)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap[4] != 3 {
		t.Fatalf("group batch snapshot version = %d, want 3", snap[4])
	}
	b, err = c.RestoreBatch(snap)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; !b.Done(); round++ {
		if round > 100 {
			t.Fatal("batch does not converge")
		}
		for i := range targets {
			if b.MemberDone(i) {
				continue
			}
			q, done := b.Question(i)
			if done {
				continue
			}
			if err := b.AnswerMember(i, oracles[i].AnswerSubset(q.Subset, q.Semantics)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, name := range targets {
		res, err := b.Result(i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != name {
			t.Fatalf("member %d discovered %q, want %q", i, res.Target, name)
		}
	}
}
