package discovery

import (
	"slices"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
)

// sameQuestions reports whether two question logs are identical in entities,
// answers and order.
func sameQuestions(a, b []Question) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Entity != b[i].Entity || a[i].Answer != b[i].Answer ||
			a[i].Semantics != b[i].Semantics || !slices.Equal(a[i].Subset, b[i].Subset) {
			return false
		}
	}
	return true
}

// sameMemberIndexes reports whether two subsets hold the same set indexes.
func sameMemberIndexes(a, b *dataset.Subset) bool {
	am, bm := a.Members(), b.Members()
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return true
}

// TestPooledSessionsAskIdenticalQuestions replays k-LP (k=2), gain-k (k=2)
// and most-even over every target of the paper collection and of a 50-set
// synthetic collection, and requires each session to ask exactly the
// questions recorded in testdata/sessions.golden.
func TestPooledSessionsAskIdenticalQuestions(t *testing.T) { replayGolden(t) }

// TestPooledSessionsWithUnknownsAndBatches covers the session features that
// touch the candidate set beyond plain narrowing: a "don't know" answer to
// the first question, which forces the exclusion path, and batches of three
// questions per interaction, over every paper target.
func TestPooledSessionsWithUnknownsAndBatches(t *testing.T) { replayGolden(t) }

// TestPooledSessionsWithBacktracking drives noisy oracles (P=0.2, 10 seeded
// trials per paper target) through the §6 confirm-and-recover loop:
// backtracking retains superseded candidate sets in its trail and restores
// them from the pool, the hardest case for recycling to get right.
func TestPooledSessionsWithBacktracking(t *testing.T) { replayGolden(t) }

// TestSessionSnapshotSurvivesLaterAnswers pins the escape discipline: a
// progress snapshot taken mid-session must keep its candidate list intact
// while the session keeps narrowing (and recycling) behind it.
func TestSessionSnapshotSurvivesLaterAnswers(t *testing.T) {
	c := testutil.PaperCollection()
	target := c.Sets()[c.Len()-1]
	oracle := TargetOracle{target}
	s, err := NewSession(c, nil, Options{Strategy: strategy.NewKLP(cost.AD, 2).New()})
	if err != nil {
		t.Fatal(err)
	}
	// Answer one question, snapshot, then finish the session.
	e, done := s.Next()
	if done {
		t.Fatal("session done before first question")
	}
	if err := s.Answer(oracle.Answer(e)); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	snapMembers := append([]uint32(nil), snap.Candidates.Members()...)
	snapSize := snap.Candidates.Size()
	for !s.Done() {
		e, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(oracle.Answer(e)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != target {
		t.Fatalf("discovered %v, want %s", res.Target, target.Name)
	}
	if snap.Candidates.Size() != snapSize {
		t.Fatalf("snapshot size changed from %d to %d after later answers", snapSize, snap.Candidates.Size())
	}
	got := snap.Candidates.Members()
	for i := range got {
		if got[i] != snapMembers[i] {
			t.Fatalf("snapshot members changed after later answers: %v vs %v", got, snapMembers)
		}
	}
}

// TestSessionSteadyStateRecycling: across many sessions sharing one
// collection, each session's scratch stays bounded — the not-taken halves
// and superseded candidate sets go back to the pool every Answer.
func TestSessionSteadyStateRecycling(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	for _, target := range c.Sets() {
		s, err := NewSession(c, nil, Options{Strategy: f.New()})
		if err != nil {
			t.Fatal(err)
		}
		oracle := TargetOracle{target}
		for !s.Done() {
			e, done := s.Next()
			if done {
				break
			}
			if err := s.Answer(oracle.Answer(e)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Target != target {
			t.Fatalf("discovered %v, want %s", res.Target, target.Name)
		}
		// Outstanding = the final (unpooled) candidate set at most, plus
		// nothing else: every intermediate subset was recycled.
		if out := s.scratch.Pool().Stats().Outstanding(); out > 1 {
			t.Fatalf("target %s: %d pooled subsets outstanding at session end, want ≤ 1",
				target.Name, out)
		}
	}
}
