package setdiscovery

import (
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
)

// Question is the pending interaction of a Session: a membership question
// about Entity ("is Entity in your set?"), a set-valued question about
// Subset under Semantics (WithGroupStrategy sessions), or — for sessions
// with WithBacktracking, once a single candidate remains — a confirmation
// question about the set named Confirm ("is Confirm your set?"). Exactly one
// of Entity, Subset and Confirm is non-empty.
type Question struct {
	Entity  string
	Confirm string

	// Subset and Semantics carry a group session's set-valued question:
	// Semantics is "intersects" ("does your set share at least one of
	// Subset?") or "subset-of" ("is every member of Subset in your set?").
	Subset    []string
	Semantics string
}

// IsConfirm reports whether the question asks for confirmation of a
// candidate set rather than entity membership.
func (q Question) IsConfirm() bool { return q.Confirm != "" }

// IsSubset reports whether the question is set-valued (a group-testing
// question about Subset) rather than about a single entity.
func (q Question) IsSubset() bool { return len(q.Subset) > 0 }

// sessionCore is the step-wise state machine behind a Session — the
// interactive loop (discovery.Session) or a prebuilt-tree walk
// (discovery.TreeSession).
type sessionCore interface {
	Next() (dataset.Entity, bool)
	PendingConfirm() (*dataset.Set, bool)
	Answer(discovery.Answer) error
	Result() (*discovery.Result, error)
	Questions() int
	Done() bool
}

// Session is a resumable discovery: where Discover drives an Oracle
// callback to completion in one call, a Session suspends at every question
// so the answer can arrive later — from another goroutine, an HTTP
// round-trip, a queued message. The protocol is
//
//	s, _ := c.NewSession([]string{"fever"})
//	for {
//	    q, done := s.Next()
//	    if done { break }
//	    s.Answer(answerFor(q))
//	}
//	res, err := s.Result()
//
// A Session asks exactly the same questions as Discover with the same
// collection, options and answers (Discover is implemented on the same
// machinery).
//
// One Session serves one user: its methods must not be called concurrently.
// Any number of Sessions may run concurrently over a shared Collection or
// Tree — sessions with equal options share the collection's lookahead
// caches, so simultaneous users amortise each other's selection work.
type Session struct {
	c *Collection
	s sessionCore

	// cfg is the configuration the session was created under; Snapshot
	// embeds it so RestoreSession can rebuild identical options. Unused (and
	// meaningless) for tree-walk sessions, which instead carry their tree.
	cfg  config
	tree *Tree // non-nil for sessions created by Tree.NewSession
}

// NewSession starts a resumable discovery session over the collection,
// suspended before its first question. The options are those of Discover;
// with WithBacktracking the session asks a final confirmation question and
// recovers from rejections by revisiting earlier answers (§6). Unknown
// initial examples yield ErrNoCandidates.
func (c *Collection) NewSession(initial []string, opts ...Option) (*Session, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	o, err := c.engineOptions(cfg)
	if err != nil {
		return nil, err
	}
	init, err := c.lookupInitial(initial)
	if err != nil {
		return nil, err
	}
	s, err := discovery.NewSession(c.c, init, o)
	if err != nil {
		return nil, err
	}
	// A session that is dead on arrival (no candidate contains the
	// examples) surfaces its error at creation rather than as a one-question
	// corpse.
	if s.Done() {
		if _, err := s.Result(); err != nil {
			return nil, err
		}
	}
	return &Session{c: c, s: s, cfg: cfg}, nil
}

// NewSession starts a resumable walk down the prebuilt tree, suspended
// before the root question. Tree sessions have constant per-question cost —
// the question sequence is frozen in the tree — which makes them the
// cheapest kind to serve at scale. A "don't know" answer ends the walk with
// the sets below the current node as candidates.
func (t *Tree) NewSession() *Session {
	return &Session{c: t.c, s: discovery.NewTreeSession(t.c.c, t.t), tree: t}
}

// Next returns the pending question; done is true once the session has
// finished. Next is idempotent — it keeps returning the same question until
// Answer is called, so a client may safely re-fetch it.
func (s *Session) Next() (Question, bool) { return s.c.question(s.s) }

// question renders the pending question of a session core with entity and
// set names; done is true once the core has finished.
func (c *Collection) question(s sessionCore) (Question, bool) {
	if set, ok := s.PendingConfirm(); ok {
		return Question{Confirm: set.Name}, false
	}
	if core, ok := s.(*discovery.Session); ok {
		if members, sem, ok := core.PendingSubset(); ok {
			names := make([]string, len(members))
			for i, e := range members {
				names[i] = c.c.EntityName(e)
			}
			return Question{Subset: names, Semantics: sem.String()}, false
		}
	}
	e, done := s.Next()
	if done {
		return Question{}, true
	}
	return Question{Entity: c.c.EntityName(e)}, false
}

// Answer applies the reply to the pending question and advances the session
// to its next question (or completion). For a confirmation question, Yes
// accepts the candidate and anything else rejects it, triggering
// backtracking. Answering a finished session is an error.
func (s *Session) Answer(a Answer) error { return s.s.Answer(a) }

// Done reports whether the session has finished.
func (s *Session) Done() bool { return s.s.Done() }

// Questions returns the number of questions counted so far (membership
// answers received, plus any pending confirmation). Unlike Result it does
// not materialise the candidate list or detach the live candidate set from
// the session's subset recycling, so it is cheap on every round-trip, and
// it keeps counting even when the session ended in a terminal error.
func (s *Session) Questions() int { return s.s.Questions() }

// Result returns the session outcome: final once Done, otherwise a progress
// snapshot (candidates narrowed so far, questions asked, empty Target). A
// session that ended in contradiction with backtracking off or exhausted
// returns ErrContradiction.
func (s *Session) Result() (*Result, error) {
	res, err := s.s.Result()
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}
