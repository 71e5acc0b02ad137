package setdiscovery

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// driveBatchRounds answers every live member once per round from its
// oracle until the whole batch is done, using the round-based protocol a
// serving layer would use (AnswerMember per member).
func driveBatchRounds(t *testing.T, b *Batch, oracles []Oracle) {
	t.Helper()
	for !b.Done() {
		stepped := false
		for i := 0; i < b.Len(); i++ {
			q, done := b.Question(i)
			if done {
				continue
			}
			a := No
			if q.IsConfirm() {
				if c, ok := oracles[i].(Confirmer); ok && c.Confirm(q.Confirm) {
					a = Yes
				}
			} else {
				a = oracles[i].Answer(q.Entity)
			}
			if err := b.AnswerMember(i, a); err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
			stepped = true
		}
		if !stepped {
			t.Fatal("batch not done but no member had a pending question")
		}
	}
}

// TestBatchMatchesSessions pins the public batch to the public sessions: a
// batch with one member per set of the paper collection asks every member
// exactly the questions its solo Session twin asks and reaches identical
// results, while sharing a nonzero amount of selection work.
func TestBatchMatchesSessions(t *testing.T) {
	c := paperCollection(t)
	names := c.Names()
	seeds := make([]Seed, len(names))
	b, err := c.NewBatch(seeds)
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]Oracle, len(names))
	for i, name := range names {
		o, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = o
	}
	driveBatchRounds(t, b, oracles)
	for i, name := range names {
		res, err := b.Result(i)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if res.Target != name {
			t.Fatalf("member %d discovered %q, want %q", i, res.Target, name)
		}
		// Solo twin: same options, same oracle.
		s, err := c.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		var asked []string
		for {
			q, done := s.Next()
			if done {
				break
			}
			asked = append(asked, q.Entity)
			if err := s.Answer(oracles[i].Answer(q.Entity)); err != nil {
				t.Fatal(err)
			}
		}
		soloRes, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if soloRes.Target != res.Target || soloRes.Questions != res.Questions ||
			soloRes.Interactions != res.Interactions {
			t.Fatalf("member %d diverged from solo session: batch %+v vs solo %+v",
				i, res, soloRes)
		}
	}
	if st := b.Stats(); st.SelectionsShared == 0 {
		t.Errorf("no selections were shared: %+v", st)
	}
}

// TestBatchIdenticalSeedsShareAllWork: members with identical seeds and
// identical answers cost one selection per round in total.
func TestBatchIdenticalSeedsShareAllWork(t *testing.T) {
	c := paperCollection(t)
	name := c.Names()[0]
	const n = 16
	b, err := c.NewBatch(make([]Seed, n), WithStrategy("most-even"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.TargetOracle(name)
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]Oracle, n)
	for i := range oracles {
		oracles[i] = o
	}
	driveBatchRounds(t, b, oracles)
	st := b.Stats()
	if st.Selections == 0 {
		t.Fatal("no selections computed")
	}
	if want := int64(n-1) * st.Selections; st.SelectionsShared != want {
		t.Fatalf("SelectionsShared = %d, want %d ((n-1) x Selections=%d)",
			st.SelectionsShared, want, st.Selections)
	}
	for i := 0; i < n; i++ {
		res, err := b.Result(i)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if res.Target != name {
			t.Fatalf("member %d discovered %q, want %q", i, res.Target, name)
		}
	}
}

// TestBatchSeedsAndErrors covers the construction and misuse contract:
// per-member seeds narrow the start state, unknown seed entities fail
// construction, out-of-range and already-done members fail Answer.
func TestBatchSeedsAndErrors(t *testing.T) {
	c := paperCollection(t)
	if _, err := c.NewBatch(nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
	if _, err := c.NewBatch([]Seed{{Initial: []string{"no-such-entity"}}}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("unknown seed entity: got %v, want ErrNoCandidates", err)
	}
	if _, err := c.NewBatch([]Seed{{}}, WithStrategy("bogus")); err == nil {
		t.Fatal("unknown strategy accepted")
	}

	b, err := c.NewBatch([]Seed{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if err := b.Answer(MemberAnswer{Member: 5, Answer: Yes}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	name := c.Names()[0]
	o, err := c.TargetOracle(name)
	if err != nil {
		t.Fatal(err)
	}
	driveBatchRounds(t, b, []Oracle{o, o})
	if !b.Done() || !b.MemberDone(0) {
		t.Fatal("batch not done after driving all members")
	}
	if err := b.Answer(MemberAnswer{Member: 0, Answer: Yes}); err == nil {
		t.Fatal("answering a finished member accepted")
	}
	if q, done := b.Question(0); !done || q.Entity != "" {
		t.Fatalf("finished member still has question %+v", q)
	}
	if b.MemberQuestions(0) == 0 {
		t.Fatal("member question count not maintained")
	}
}

// TestBatchAccessorBounds pins the misuse contract: read accessors panic
// on out-of-range members (like slice indexing), the answering path errors.
func TestBatchAccessorBounds(t *testing.T) {
	c := paperCollection(t)
	b, err := c.NewBatch([]Seed{{}})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Question":        func() { b.Question(1) },
		"MemberDone":      func() { b.MemberDone(-1) },
		"MemberQuestions": func() { b.MemberQuestions(7) },
		"Result":          func() { b.Result(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with out-of-range member did not panic", name)
				}
			}()
			f()
		}()
	}
	if err := b.AnswerMember(1, Yes); err == nil {
		t.Error("AnswerMember with out-of-range member did not error")
	}
}

// TestBatchSharesSelectionMemo pins the one selection-sharing mechanism at
// the public layer. A solo Session runs to its target first; then a batch
// whose members give the same answers runs. On the solo session's (warm)
// collection the members select through the collection's memo and compute
// nothing; on a collection the solo session never ran on (cold) they
// compute exactly one solo session's selections between them. Either way
// every member asks the solo session's questions.
func TestBatchSharesSelectionMemo(t *testing.T) {
	// 64 sets, one per 6-bit pattern over e0..e5: every target takes six
	// questions.
	sets := make(map[string][]string)
	for i := 0; i < 64; i++ {
		members := []string{"x"}
		for bit := 0; bit < 6; bit++ {
			if i>>bit&1 == 1 {
				members = append(members, fmt.Sprintf("e%d", bit))
			}
		}
		sets[fmt.Sprintf("S%02d", i)] = members
	}
	const n = 4
	for _, tc := range []struct {
		label        string
		soloComputes bool // whether the batch recomputes the solo's selections
	}{
		{"warm", false},
		{"cold", true},
	} {
		c, err := NewCollection(sets)
		if err != nil {
			t.Fatal(err)
		}
		soloC := c
		if tc.soloComputes {
			if soloC, err = NewCollection(sets); err != nil {
				t.Fatal(err)
			}
		}
		target, err := soloC.TargetOracle("S45")
		if err != nil {
			t.Fatal(err)
		}
		s, err := soloC.NewSession(nil)
		if err != nil {
			t.Fatal(err)
		}
		solo := &recordingOracle{inner: target}
		for {
			q, done := s.Next()
			if done {
				break
			}
			if err := s.Answer(solo.Answer(q.Entity)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Result()
		if err != nil || res.Target != "S45" {
			t.Fatalf("%s: solo session found %q (%v), want S45", tc.label, res.Target, err)
		}
		soloSelections := int64(res.Interactions)

		b, err := c.NewBatch(make([]Seed, n))
		if err != nil {
			t.Fatal(err)
		}
		oracles := make([]Oracle, n)
		recs := make([]*recordingOracle, n)
		for i := range oracles {
			recs[i] = &recordingOracle{inner: target}
			oracles[i] = recs[i]
		}
		driveBatchRounds(t, b, oracles)
		for i, rec := range recs {
			if !reflect.DeepEqual(rec.asked, solo.asked) {
				t.Fatalf("%s: member %d asked %v, solo session asked %v", tc.label, i, rec.asked, solo.asked)
			}
		}
		want := BatchStats{Selections: 0, SelectionsShared: n * soloSelections}
		if tc.soloComputes {
			want = BatchStats{Selections: soloSelections, SelectionsShared: (n - 1) * soloSelections}
		}
		if st := b.Stats(); st != want {
			t.Errorf("%s: Stats() = %+v, want %+v", tc.label, st, want)
		}
	}
}
