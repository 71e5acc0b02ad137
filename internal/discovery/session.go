package discovery

import (
	"errors"
	"time"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/tree"
)

// ErrSessionDone is returned by Session.Answer and TreeSession.Answer when
// the session has finished and no question is pending.
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
// without that option never enter the confirming state.
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
	// checked per batch, not per question) is preserved exactly.
	batch         []dataset.Entity
	inBatch       bool
	contradiction bool

	// memoKeys is the trail of collection-memo keys this session's selections
	// visited (hits and misses alike), capped at memoTrailCap. Snapshotting
	// exports the corresponding entries as a memo delta, so a migrated
	// session warms its destination's memo along its own discovery path.
	memoKeys []cache.Key

	state   sessionState
	pending dataset.Entity
	confirm *dataset.Set
	err     error

	// pendingSub/pendingSem hold the suspended set-valued question of a
	// group session (Options.Group); pending is unused in that mode. Group
	// sessions run one subset question per interaction — the batch slice
	// above stays empty — and bypass the entity-keyed selection memo:
	// selection and partition run direct.
	pendingSub []dataset.Entity
	pendingSem grouptest.Semantics
}

// NewSession starts a discovery session: filter the collection to supersets
// of the initial examples and suspend before the first question. The only
// construction error is a missing strategy; an initial example set contained
// in no candidate yields a session that is immediately Done with
// ErrNoCandidates from Result, mirroring Run's result-plus-error return.
func NewSession(c *dataset.Collection, initial []dataset.Entity, opts Options) (*Session, error) {
	if opts.Strategy == nil && opts.Group == nil {
		return nil, errors.New("discovery: Options.Strategy is required")
	}
	if opts.Backtrack && opts.MaxBacktracks == 0 {
		opts.MaxBacktracks = 64
	}
	// Lines 1–4 of Algorithm 2: candidates are supersets of the examples.
	cs := c.SupersetsOf(initial)
	s := &Session{
		c:        c,
		opts:     opts,
		res:      &Result{Candidates: cs},
		cs:       cs,
		excluded: make(map[dataset.Entity]bool),
	}
	if !opts.noScratch {
		s.scratch = dataset.NewScratch()
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
	return s.pending, false
}

// PendingSubset reports the suspended set-valued question of a group
// session: the entities asked about and the semantics to judge them under.
// Like Next it is idempotent; it reports false for entity sessions, in the
// confirming state, and once done. The returned slice is the session's own
// — callers must not mutate it.
func (s *Session) PendingSubset() ([]dataset.Entity, grouptest.Semantics, bool) {
	if s.state != stateAsk || s.pendingSub == nil {
		return nil, 0, false
	}
	return s.pendingSub, s.pendingSem, true
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
		cs, trail, err := backtrack(s.trail, s.opts, s.res)
		s.trail = trail
		if err != nil {
			s.finish(err)
			return nil
		}
		// The rejected single-candidate set is superseded by the restored
		// one and nothing else references it (snapshots detach first).
		s.cs.Release()
		s.cs = cs
		s.advance()
		return nil
	case stateAsk:
		if a != Yes && a != No && a != Unknown {
			return ErrInvalidAnswer
		}
		if s.pendingSub != nil {
			return s.answerGroup(a)
		}
		e := s.pending
		s.res.Questions++
		s.res.Asked = append(s.res.Asked, Question{Entity: e, Answer: a})
		switch a {
		case Unknown:
			s.res.Unknowns++
			s.excluded[e] = true
		case Yes, No:
			old := s.cs
			// lint:owns — the session owns cs; finish/releaseTrail recycle it.
			s.cs = applyScratch(old, e, a, s.scratch)
			if s.opts.Backtrack {
				// The trail must be able to restore any earlier candidate
				// set, so superseded subsets stay live until the session
				// ends.
				s.trail = append(s.trail, trailEntry{before: old, entity: e, answer: a})
			} else {
				// Without backtracking nothing can reference the superseded
				// subset again; recycle it (a no-op if it escaped through a
				// Result snapshot, which detaches it first).
				old.Release()
			}
			if s.cs.Size() == 0 {
				// Only reachable in batch mode: a later question of the
				// batch may contradict the already narrowed candidates.
				// Abandon the rest of the batch, recover in advance().
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

// answerGroup applies the user's reply to the pending set-valued question.
// It mirrors the entity path of Answer: an Unknown excludes every member of
// the subset (the whole question was unanswerable), a Yes/No partitions by
// the subset's semantics through the session scratch.
func (s *Session) answerGroup(a Answer) error {
	members, sem := s.pendingSub, s.pendingSem
	s.pendingSub = nil
	s.res.Questions++
	s.res.Asked = append(s.res.Asked, Question{Subset: members, Semantics: sem, Answer: a})
	switch a {
	case Unknown:
		s.res.Unknowns++
		for _, e := range members {
			s.excluded[e] = true
		}
	case Yes, No:
		old := s.cs
		// lint:owns — the session owns cs; finish/releaseTrail recycle it.
		s.cs = applyGroupScratch(old, members, sem, a, s.scratch)
		if s.opts.Backtrack {
			s.trail = append(s.trail, trailEntry{before: old, subset: members, sem: sem, answer: a})
		} else {
			old.Release()
		}
		if s.cs.Size() == 0 {
			// Unreachable for strategies honouring the proper-split contract;
			// recover like the batch path if one ever slips.
			s.contradiction = true
		}
	}
	s.advance()
	return nil
}

// advanceGroup is the group session's advance: no multiple-choice batches,
// one strategy-selected subset question per interaction.
func (s *Session) advanceGroup() {
	if s.contradiction {
		s.contradiction = false
		cs, trail, err := backtrack(s.trail, s.opts, s.res)
		s.trail = trail
		if err != nil {
			s.finish(err)
			return
		}
		s.cs.Release()
		s.cs = cs
	}
	if s.cs.Size() > 1 && !(s.opts.MaxQuestions > 0 && s.res.Questions >= s.opts.MaxQuestions) {
		if q, ok := s.selectGroup(); ok {
			s.res.Interactions++
			s.pendingSub = q.Members
			s.pendingSem = q.Semantics
			s.state = stateAsk
			return
		}
		// Every informative entity was excluded by "don't know" replies: halt.
	}
	if s.cs.Size() == 1 && s.opts.ConfirmTarget {
		s.res.Questions++
		s.res.Interactions++
		s.confirm = s.cs.Single()
		s.state = stateConfirm
		return
	}
	s.finish(nil)
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
// confirmation.
func (s *Session) advance() {
	if s.opts.Group != nil {
		s.advanceGroup()
		return
	}
	for {
		if s.inBatch {
			// Mid-interaction: ask the next batch entity while several
			// candidates remain (Run checks cs.Size() before each batch
			// question but MaxQuestions only per interaction).
			if s.cs.Size() > 1 && len(s.batch) > 0 {
				s.pending = s.batch[0]
				s.batch = s.batch[1:]
				s.state = stateAsk
				return
			}
			s.inBatch = false
			if s.contradiction {
				s.contradiction = false
				cs, trail, err := backtrack(s.trail, s.opts, s.res)
				s.trail = trail
				if err != nil {
					s.finish(err)
					return
				}
				// The emptied candidate set of the abandoned batch is
				// superseded by the restored one; recycle it (it cannot be
				// in the trail — trail entries hold pre-partition sets).
				s.cs.Release()
				s.cs = cs
			}
		}
		if s.cs.Size() > 1 && !(s.opts.MaxQuestions > 0 && s.res.Questions >= s.opts.MaxQuestions) {
			entities, ok := s.selectInteraction()
			if ok {
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

// TreeSession is the step-wise counterpart of FollowTree: a resumable walk
// down a prebuilt decision tree. Each answer descends one branch, so the
// per-question cost is constant — the cheapest session kind to serve.
// "Don't know" stops the walk with the remaining subtree as candidates.
// Like Session, a TreeSession is single-user; the shared Tree itself is
// immutable and serves any number of concurrent sessions.
type TreeSession struct {
	c    *dataset.Collection
	n    *tree.Node
	res  *Result
	done bool
}

// NewTreeSession starts a walk at the root of t.
func NewTreeSession(c *dataset.Collection, t *tree.Tree) *TreeSession {
	s := &TreeSession{c: c, n: t.Root, res: &Result{}}
	s.settle()
	return s
}

// Next returns the pending membership question, or done once the walk has
// reached a leaf or was stopped by an Unknown answer. Like Session.Next it
// is idempotent.
func (s *TreeSession) Next() (dataset.Entity, bool) {
	if s.done {
		return 0, true
	}
	return s.n.Entity, false
}

// PendingConfirm always reports false: a fixed tree has no confirmation
// step. It exists so Session and TreeSession satisfy one driver interface.
func (s *TreeSession) PendingConfirm() (*dataset.Set, bool) { return nil, false }

// Done reports whether the walk has finished.
func (s *TreeSession) Done() bool { return s.done }

// Answer applies the reply to the pending question and descends the tree.
func (s *TreeSession) Answer(a Answer) error {
	if s.done {
		return ErrSessionDone
	}
	if a != Yes && a != No && a != Unknown {
		return ErrInvalidAnswer
	}
	// Branch following is the entire selection cost of a prebuilt tree;
	// unlike the original FollowTree the user's thinking time between
	// questions is not on the clock, matching Run's accounting.
	start := time.Now()
	defer func() { s.res.SelectionTime += time.Since(start) }()
	s.res.Questions++
	s.res.Interactions++
	s.res.Asked = append(s.res.Asked, Question{Entity: s.n.Entity, Answer: a})
	switch a {
	case Yes:
		s.n = s.n.Yes
	case No:
		s.n = s.n.No
	default:
		// A fixed tree cannot reroute around an unanswerable question; the
		// sets below the current node remain as candidates.
		s.res.Unknowns++
		s.res.Candidates = s.c.SubsetOf(leavesUnder(s.n))
		s.done = true
	}
	s.settle()
	return nil
}

// settle finishes the walk when the current node is a leaf.
func (s *TreeSession) settle() {
	if s.done || !s.n.Leaf() {
		return
	}
	s.res.Candidates = s.c.SubsetOf([]uint32{uint32(s.n.Set.Index)})
	s.res.Target = s.n.Set
	s.done = true
}

// Questions returns the number of questions answered so far, without
// materialising the snapshot candidate list Result builds for a live walk.
func (s *TreeSession) Questions() int { return s.res.Questions }

// Result returns the walk outcome; before Done it is a snapshot whose
// candidates are the sets below the current node.
func (s *TreeSession) Result() (*Result, error) {
	if s.done {
		return s.res, nil
	}
	r := *s.res
	r.Candidates = s.c.SubsetOf(leavesUnder(s.n))
	return &r, nil
}
