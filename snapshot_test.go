package setdiscovery

import (
	"errors"
	"reflect"
	"testing"
)

// lieOnOracle answers truthfully for its target except for one entity, where
// it lies; confirmation is truthful. Deterministic and stateless per entity,
// so an original session and its restored twin see identical answers.
type lieOnOracle struct {
	inner Oracle
	lieOn string
}

func (l lieOnOracle) Answer(entity string) Answer {
	a := l.inner.Answer(entity)
	if entity != l.lieOn {
		return a
	}
	if a == Yes {
		return No
	}
	return Yes
}

func (l lieOnOracle) Confirm(setName string) bool {
	return l.inner.(Confirmer).Confirm(setName)
}

// unknownOnOracle answers Unknown for one entity and truthfully otherwise.
type unknownOnOracle struct {
	inner Oracle
	on    string
}

func (u unknownOnOracle) Answer(entity string) Answer {
	if entity == u.on {
		return Unknown
	}
	return u.inner.Answer(entity)
}

// stepSession answers exactly one pending question (membership or
// confirmation), reporting false when the session is done.
func stepSession(t *testing.T, s *Session, o Oracle) bool {
	t.Helper()
	q, done := s.Next()
	if done {
		return false
	}
	a := o.Answer(q.Entity)
	if q.IsConfirm() {
		a = No
		if c, ok := o.(Confirmer); ok && c.Confirm(q.Confirm) {
			a = Yes
		}
	}
	if err := s.Answer(a); err != nil {
		t.Fatalf("Answer: %v", err)
	}
	return true
}

// sameResults fails unless two results agree on everything but timing.
func sameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Target != want.Target || got.Questions != want.Questions ||
		got.Interactions != want.Interactions || got.Backtracks != want.Backtracks ||
		!reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Errorf("%s: results diverged:\nrestored: %+v\noriginal: %+v", label, got, want)
	}
}

// TestSnapshotRestoreSession is the public acceptance test for portable
// sessions: at every suspension point, Snapshot + RestoreSession onto a
// *separately built* collection (the cross-process situation) yields a twin
// that asks the identical remaining questions and finishes with the same
// counters and Result as the never-suspended session — plain, with "don't
// know" answers, and through backtracking.
func TestSnapshotRestoreSession(t *testing.T) {
	c1, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCollection(paperSets()) // the "other process"
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		opts   []Option
		oracle func(inner Oracle) Oracle
	}{
		{"default", nil, func(inner Oracle) Oracle { return inner }},
		{"mosteven-batch3", []Option{WithStrategy("most-even"), WithBatchSize(3)},
			func(inner Oracle) Oracle { return inner }},
		{"unknowns", []Option{WithStrategy("infogain")},
			func(inner Oracle) Oracle { return unknownOnOracle{inner: inner, on: "b"} }},
		{"backtracking-liar", []Option{WithBacktracking()},
			func(inner Oracle) Oracle { return lieOnOracle{inner: inner, lieOn: "c"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range c1.Names() {
				inner, err := c1.TargetOracle(target)
				if err != nil {
					t.Fatal(err)
				}
				o := tc.oracle(inner)
				ref, err := c1.NewSession(nil, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				steps := 0
				for stepSession(t, ref, o) {
					steps++
				}
				for cut := 0; cut <= steps; cut++ {
					orig, err := c1.NewSession(nil, tc.opts...)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < cut && stepSession(t, orig, o); i++ {
					}
					snap, err := orig.Snapshot()
					if err != nil {
						t.Fatalf("%s cut %d: Snapshot: %v", target, cut, err)
					}
					restored, err := c2.RestoreSession(snap)
					if err != nil {
						t.Fatalf("%s cut %d: RestoreSession: %v", target, cut, err)
					}
					if restored.Questions() != orig.Questions() {
						t.Fatalf("%s cut %d: question count %d after restore, want %d",
							target, cut, restored.Questions(), orig.Questions())
					}
					// The restored twin's oracle must resolve against c2's
					// names — identical input, so c1's oracle works for both.
					gotAsked := driveSession(t, restored, o)
					wantAsked := driveSession(t, orig, o)
					if !reflect.DeepEqual(gotAsked, wantAsked) {
						t.Fatalf("%s cut %d: remaining questions diverged:\nrestored: %v\noriginal: %v",
							target, cut, gotAsked, wantAsked)
					}
					gotRes, gotErr := restored.Result()
					wantRes, wantErr := orig.Result()
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s cut %d: result errors diverged: %v vs %v", target, cut, gotErr, wantErr)
					}
					if gotErr == nil {
						sameResults(t, target, gotRes, wantRes)
					}
				}
			}
		})
	}
}

// TestSnapshotRestoreTreeSession pins the tree-walk variant: snapshots
// restore onto an equivalent tree built by another process and finish
// identically.
func TestSnapshotRestoreTreeSession(t *testing.T) {
	c1, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := c1.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c2.BuildTree() // same input, same options: identical tree
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range c1.Names() {
		o, err := c1.TargetOracle(target)
		if err != nil {
			t.Fatal(err)
		}
		ref := t1.NewSession()
		steps := 0
		for stepSession(t, ref, o) {
			steps++
		}
		for cut := 0; cut <= steps; cut++ {
			orig := t1.NewSession()
			for i := 0; i < cut && stepSession(t, orig, o); i++ {
			}
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := t2.RestoreSession(snap)
			if err != nil {
				t.Fatalf("%s cut %d: RestoreSession: %v", target, cut, err)
			}
			gotAsked := driveSession(t, restored, o)
			wantAsked := driveSession(t, orig, o)
			if !reflect.DeepEqual(gotAsked, wantAsked) {
				t.Fatalf("%s cut %d: remaining questions diverged: %v vs %v",
					target, cut, gotAsked, wantAsked)
			}
			gotRes, _ := restored.Result()
			wantRes, _ := orig.Result()
			sameResults(t, target, gotRes, wantRes)
		}
	}
}

// TestSnapshotRestoreBatch: a suspended batch restores with every member
// resuming exactly where it stopped and the amortisation counters intact.
func TestSnapshotRestoreBatch(t *testing.T) {
	c1, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	targets := c1.Names()
	seeds := make([]Seed, len(targets))
	oracles := make([]Oracle, len(targets))
	for i, name := range targets {
		o, err := c1.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	runRound := func(b *Batch) bool {
		progressed := false
		for i := 0; i < b.Len(); i++ {
			q, done := b.Question(i)
			if done {
				continue
			}
			a := oracles[i].Answer(q.Entity)
			if q.IsConfirm() {
				a = No
			}
			if err := b.AnswerMember(i, a); err != nil {
				t.Fatal(err)
			}
			progressed = true
		}
		return progressed
	}
	ref, err := c1.NewBatch(seeds)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for !ref.Done() && runRound(ref) {
		rounds++
	}
	for cut := 0; cut <= rounds; cut++ {
		orig, err := c1.NewBatch(seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			runRound(orig)
		}
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := c2.RestoreBatch(snap)
		if err != nil {
			t.Fatalf("cut %d: RestoreBatch: %v", cut, err)
		}
		if restored.Stats() != orig.Stats() {
			t.Errorf("cut %d: stats diverged after restore: %+v vs %+v",
				cut, restored.Stats(), orig.Stats())
		}
		for !restored.Done() && runRound(restored) {
		}
		for !orig.Done() && runRound(orig) {
		}
		for i := range targets {
			gotRes, gotErr := restored.Result(i)
			wantRes, wantErr := orig.Result(i)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("cut %d member %d: result errors diverged: %v vs %v", cut, i, gotErr, wantErr)
			}
			if gotErr == nil {
				sameResults(t, targets[i], gotRes, wantRes)
			}
		}
	}
}

// TestSnapshotRejections: snapshots must not restore over the wrong
// collection or through the wrong entry point, and garbage must fail
// cleanly.
func TestSnapshotRejections(t *testing.T) {
	c, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewCollection(map[string][]string{
		"A": {"x", "y"}, "B": {"x", "z"}, "C": {"y", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.NewSession([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	treeSnap, err := tr.NewSession().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewBatch([]Seed{{Initial: []string{"b"}}, {}})
	if err != nil {
		t.Fatal(err)
	}
	batchSnap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if info, err := ReadSnapshotInfo(snap); err != nil || info.Kind != SnapshotSession {
		t.Errorf("ReadSnapshotInfo(session) = %+v, %v", info, err)
	}
	if info, err := ReadSnapshotInfo(treeSnap); err != nil || info.Kind != SnapshotTreeSession {
		t.Errorf("ReadSnapshotInfo(tree) = %+v, %v", info, err)
	}
	if info, err := ReadSnapshotInfo(batchSnap); err != nil || info.Kind != SnapshotBatch {
		t.Errorf("ReadSnapshotInfo(batch) = %+v, %v", info, err)
	}

	rejections := []struct {
		name string
		do   func() error
	}{
		{"session onto foreign collection", func() error { _, err := other.RestoreSession(snap); return err }},
		{"batch onto foreign collection", func() error { _, err := other.RestoreBatch(batchSnap); return err }},
		{"tree snapshot via RestoreSession", func() error { _, err := c.RestoreSession(treeSnap); return err }},
		{"session snapshot via RestoreBatch", func() error { _, err := c.RestoreBatch(snap); return err }},
		{"batch snapshot via RestoreSession", func() error { _, err := c.RestoreSession(batchSnap); return err }},
		{"session snapshot via Tree.RestoreSession", func() error { _, err := tr.RestoreSession(snap); return err }},
		{"empty input", func() error { _, err := c.RestoreSession(nil); return err }},
		{"bad magic", func() error { _, err := c.RestoreSession([]byte("XXXXxxxxxxxxxxxxxxxxxxxxxxxx")); return err }},
		{"truncated", func() error { _, err := c.RestoreSession(snap[:len(snap)/2]); return err }},
	}
	for _, rj := range rejections {
		if err := rj.do(); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", rj.name, err)
		}
	}

	// A finished session snapshots and restores as finished.
	o, err := c.TargetOracle("S5")
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, s, o)
	doneSnap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := c.RestoreSession(doneSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Done() {
		t.Error("restored finished session is not done")
	}
	gotRes, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "done-session", gotRes, wantRes)
}
