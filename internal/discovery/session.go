package discovery

import (
	"errors"
	"time"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
)

// ErrSessionDone is returned by Session.Answer when the session has
// finished and no question is pending.
var ErrSessionDone = errors.New("discovery: session is done; no pending question")

// ErrInvalidAnswer is returned by Answer for values outside Yes/No/Unknown.
var ErrInvalidAnswer = errors.New("discovery: invalid answer")

// sessionState is the resumption point of a Session between interactions.
type sessionState int

const (
	// stateAsk: a membership question (Session.pending) awaits an answer.
	stateAsk sessionState = iota
	// stateConfirm: a candidate set (Session.confirm) awaits confirmation.
	stateConfirm
	// stateDone: the session has finished; Result holds the outcome.
	stateDone
)

// Session is the step-wise inversion of Run's oracle-driven loop: instead of
// calling an Oracle synchronously, it suspends at every question so the
// answer can arrive over any transport — a terminal prompt, an HTTP
// round-trip, a message queue. The protocol is
//
//	for {
//	    if set, ok := s.PendingConfirm(); ok { s.Answer(yesOrNo) ; continue }
//	    if sub, sem, ok := s.PendingSubset(); ok { s.Answer(answerForSubset(sub, sem)) ; continue }
//	    e, done := s.Next()
//	    if done { break }
//	    s.Answer(answerFor(e))
//	}
//	res, err := s.Result()
//
// A Session asks exactly the questions Run asks for the same collection,
// initial examples and options, in the same order — Run is implemented on
// top of Session, and the equivalence is test-enforced. Confirmation
// questions (Options.ConfirmTarget) surface through PendingConfirm; sessions
// without that option never enter the confirming state. Subset questions
// surface through PendingSubset, and only in group sessions (Options.Group);
// Next reports entity 0 for them.
//
// A Session is a single-user object: calls on one Session must be
// externally serialised. Many Sessions may run concurrently over one shared
// collection; give each its own Strategy instance from a shared factory so
// they amortise each other's lookahead work (see Options.Strategy).
type Session struct {
	c    *dataset.Collection
	opts Options
	res  *Result

	cs       *dataset.Subset
	excluded map[dataset.Entity]bool
	trail    []trailEntry

	// scratch recycles the candidate-narrowing partitions across the whole
	// session: every Answer splits the candidate set, and without reuse a
	// long session churns two bitsets per question. The half not taken is
	// released immediately; superseded candidate sets are released too once
	// no trail entry or escaped snapshot can reference them. Anything
	// exposed through Result is detached first (Unpool), so callers never
	// observe recycled memory.
	scratch *dataset.Scratch

	// batch holds the not-yet-asked entities of the in-flight interaction;
	// inBatch distinguishes "between interactions" from "mid-interaction"
	// so that the per-interaction bookkeeping of Run (MaxQuestions is
	// checked per batch, not per question) is preserved exactly. Group
	// sessions ask one subset question per interaction and never fill it.
	batch         []dataset.Entity
	inBatch       bool
	contradiction bool

	state sessionState
	// pending is the question of stateAsk: an entity from the batch, or a
	// group session's subset. A subset is cleared once answered, while an
	// entity session keeps its last entity; the state encoding relies on
	// both.
	pending Question
	confirm *dataset.Set
	err     error
}

// NewSession starts a discovery session: filter the collection to supersets
// of the initial examples and suspend before the first question. The only
// construction error is a missing strategy; an initial example set contained
// in no candidate yields a session that is immediately Done with
// ErrNoCandidates from Result, mirroring Run's result-plus-error return.
func NewSession(c *dataset.Collection, initial []dataset.Entity, opts Options) (*Session, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Lines 1–4 of Algorithm 2: candidates are supersets of the examples.
	cs := c.SupersetsOf(initial)
	s := &Session{
		c:        c,
		opts:     opts,
		res:      &Result{Candidates: cs},
		cs:       cs,
		excluded: make(map[dataset.Entity]bool),
		scratch:  dataset.NewScratch(),
	}
	if cs.Size() == 0 {
		s.finish(ErrNoCandidates)
		return s, nil
	}
	s.advance()
	return s, nil
}

// Next returns the entity of the pending membership question; done is true
// once the session has finished. Next does not advance the session — it may
// be called any number of times (e.g. by a client re-fetching its question)
// and keeps returning the same entity until Answer is called. When the
// session is waiting for a confirmation instead of a membership answer,
// Next returns (0, false) and PendingConfirm reports the candidate; for a
// group session's subset question, PendingSubset reports it likewise.
func (s *Session) Next() (dataset.Entity, bool) {
	if s.state == stateDone {
		return 0, true
	}
	if s.state == stateConfirm {
		return 0, false
	}
	return s.pending.Entity, false
}

// PendingSubset reports the suspended set-valued question of a group
// session: the entities asked about and the semantics to judge them under.
// Like Next it is idempotent; it reports false for entity sessions, in the
// confirming state, and once done. The returned slice is the session's own
// — callers must not mutate it.
func (s *Session) PendingSubset() ([]dataset.Entity, grouptest.Semantics, bool) {
	if s.state != stateAsk || s.pending.Subset == nil {
		return nil, 0, false
	}
	return s.pending.Subset, s.pending.Semantics, true
}

// PendingConfirm reports whether the session is waiting for the user to
// confirm the returned candidate as their target (§6 error recovery:
// Options.ConfirmTarget). Answer(Yes) accepts it and finishes the session;
// any other answer rejects it and triggers backtracking.
func (s *Session) PendingConfirm() (*dataset.Set, bool) {
	if s.state == stateConfirm {
		return s.confirm, true
	}
	return nil, false
}

// Done reports whether the session has finished (uniquely discovered
// target, halt condition, exhausted questions, or terminal error).
func (s *Session) Done() bool { return s.state == stateDone }

// Answer applies the user's reply to the pending question and advances the
// session to its next suspension point. It returns ErrSessionDone when no
// question is pending and ErrInvalidAnswer for out-of-range values; terminal
// discovery errors (ErrNoCandidates, ErrContradiction) are reported by
// Result, exactly as Run reports them.
func (s *Session) Answer(a Answer) error {
	switch s.state {
	case stateConfirm:
		if a != Yes && a != No && a != Unknown {
			return ErrInvalidAnswer
		}
		s.confirm = nil
		if a == Yes {
			s.finish(nil)
			return nil
		}
		// Rejection (a "don't know" about one's own set counts as one):
		// some earlier answer was wrong — flip and resume.
		if err := s.backtrack(); err != nil {
			s.finish(err)
			return nil
		}
		s.advance()
		return nil
	case stateAsk:
		if a != Yes && a != No && a != Unknown {
			return ErrInvalidAnswer
		}
		q := s.pending
		q.Answer = a
		s.pending.Subset = nil
		s.res.Questions++
		s.res.Asked = append(s.res.Asked, q)
		switch a {
		case Unknown:
			// The whole question was unanswerable: exclude the entity, or
			// every member of the subset.
			s.res.Unknowns++
			if q.Subset == nil {
				s.excluded[q.Entity] = true
			}
			for _, e := range q.Subset {
				s.excluded[e] = true
			}
		case Yes, No:
			old := s.cs
			// lint:owns — the session owns cs; finish/releaseTrail recycle it.
			s.cs = q.apply(old, s.scratch)
			if s.opts.Backtrack {
				// The trail must be able to restore any earlier candidate
				// set, so superseded subsets stay live until the session
				// ends.
				s.trail = append(s.trail, trailEntry{before: old, Question: q})
			} else {
				// Without backtracking nothing can reference the superseded
				// subset again; recycle it (a no-op if it escaped through a
				// Result snapshot, which detaches it first).
				old.Release()
			}
			if s.cs.Size() == 0 {
				// A later question of a batch may contradict the candidates
				// the earlier ones narrowed (a group question never should:
				// its strategy splits properly). Abandon the rest of the
				// batch, recover in advance().
				s.contradiction = true
				s.batch = nil
			}
		}
		s.advance()
		return nil
	default:
		return ErrSessionDone
	}
}

// selectGroup asks the group strategy for the next subset, on the
// selection-time clock. Group selections bypass every entity-keyed memo.
func (s *Session) selectGroup() (grouptest.QuestionSubset, bool) {
	start := time.Now()
	defer func() { s.res.SelectionTime += time.Since(start) }()
	return s.opts.Group.SelectSubset(s.cs, s.excluded)
}

// advance runs the deterministic part of Algorithm 2 until the next point
// where a user answer is needed (stateAsk or stateConfirm) or the session
// finishes. It mirrors Run's control flow: continue the in-flight batch,
// recover from contradictions, select the next interaction, ask for final
// confirmation. A group session's interaction is its one subset question.
func (s *Session) advance() {
	for {
		if s.inBatch {
			// Mid-interaction: ask the next batch entity while several
			// candidates remain (Run checks cs.Size() before each batch
			// question but MaxQuestions only per interaction).
			if s.cs.Size() > 1 && len(s.batch) > 0 {
				s.pending = Question{Entity: s.batch[0]}
				s.batch = s.batch[1:]
				s.state = stateAsk
				return
			}
			s.inBatch = false
		}
		if s.contradiction {
			s.contradiction = false
			if err := s.backtrack(); err != nil {
				s.finish(err)
				return
			}
		}
		if s.cs.Size() > 1 && !(s.opts.MaxQuestions > 0 && s.res.Questions >= s.opts.MaxQuestions) {
			if s.opts.Group != nil {
				if q, ok := s.selectGroup(); ok {
					s.res.Interactions++
					s.pending = Question{Subset: q.Members, Semantics: q.Semantics}
					s.state = stateAsk
					return
				}
			} else if entities, ok := s.selectInteraction(); ok {
				s.res.Interactions++
				s.batch = entities
				s.inBatch = true
				continue
			}
			// Every informative entity was answered "don't know": halt.
		}
		if s.cs.Size() == 1 && s.opts.ConfirmTarget {
			// Counted before the reply arrives, matching Run.
			s.res.Questions++
			s.res.Interactions++
			s.confirm = s.cs.Single()
			s.state = stateConfirm
			return
		}
		s.finish(nil)
		return
	}
}

// selectInteraction picks the entities of the next interaction: through the
// selection memo when the session has one and no "don't know" exclusions
// (exclusions make the result depend on more than the candidate
// fingerprint), directly otherwise. A batch member counts every selection
// in its batch's stats.
func (s *Session) selectInteraction() ([]dataset.Entity, bool) {
	if m := s.opts.Memo; m != nil && len(s.excluded) == 0 {
		entities, ok, computed := m.selectShared(s)
		s.opts.stats.count(computed)
		return entities, ok
	}
	s.opts.stats.count(true)
	return selectBatch(s.cs, s.opts, s.excluded, s.res, s.scratch)
}

// finish moves the session to its terminal state. The final candidate set
// escapes into the Result, so it is detached from the session scratch
// first — the pool must never reclaim memory a caller can still see. The
// backtracking trail, by contrast, can never be walked again: its retained
// pre-partition sets go back to the pool, as does the ruled-out candidate
// set of a contradiction (which never escapes — the Result gets a fresh
// empty subset instead).
func (s *Session) finish(err error) {
	s.state = stateDone
	s.err = err
	s.releaseTrail()
	switch {
	case err == nil:
		s.cs.Unpool()
		s.res.Candidates = s.cs
		if s.cs.Size() == 1 {
			s.res.Target = s.cs.Single()
		}
	case errors.Is(err, ErrNoCandidates):
		s.cs.Unpool()
		s.res.Candidates = s.cs
	default: // contradiction: every candidate was ruled out
		s.cs.Release()
		s.cs = nil
		s.res.Candidates = s.c.SubsetOf(nil)
	}
}

// releaseTrail recycles the trail's pre-partition candidate sets. Entries
// hold pairwise-distinct subsets, all distinct from the live s.cs (every
// partition and every backtracking restore mints a fresh subset), so each
// is released exactly once.
func (s *Session) releaseTrail() {
	for i := range s.trail {
		s.trail[i].before.Release()
	}
	s.trail = nil
}

// Questions returns the number of questions counted so far without taking
// a Result snapshot. Serving layers poll this on every round trip; unlike
// Result it neither copies the result nor detaches the live candidate set
// from the session's recycling.
func (s *Session) Questions() int { return s.res.Questions }

// Result returns the session outcome. Once Done it is exactly what Run
// would have returned (including a nil-error Result paired with
// ErrNoCandidates or ErrContradiction). Before Done it is a progress
// snapshot: candidates narrowed so far, questions asked, no Target.
func (s *Session) Result() (*Result, error) {
	if s.state == stateDone {
		return s.res, s.err
	}
	r := *s.res
	// The snapshot hands the live candidate set to the caller; detach it
	// so later Answers can no longer recycle its memory underneath them.
	s.cs.Unpool()
	r.Candidates = s.cs
	return &r, nil
}
