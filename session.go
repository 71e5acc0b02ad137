package setdiscovery

import "setdiscovery/internal/discovery"

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
	s *discovery.Session

	// cfg is the configuration the session was created under; Snapshot
	// embeds it so RestoreSession can rebuild identical options.
	cfg config
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

// NewSession starts a discovery over the tree's collection from no initial
// examples, suspended before its first question. It is a live session under
// the selection options the tree was built with (see Tree), so it asks the
// tree's questions; after BuildTree, the lookahead caches the build left
// warm answer its selections. Like every session it keeps asking after a
// "don't know", where DiscoverWithTree stops with the subtree's sets as
// candidates.
func (t *Tree) NewSession() *Session {
	s, err := t.c.NewSession(nil, func(cfg *config) { *cfg = t.cfg })
	if err != nil {
		// Unreachable: BuildTree made t.cfg's factory, LoadTree's defaults
		// always make one, and with no examples every set is a candidate.
		panic(err)
	}
	return s
}

// Next returns the pending question; done is true once the session has
// finished. Next is idempotent — it keeps returning the same question until
// Answer is called, so a client may safely re-fetch it.
func (s *Session) Next() (Question, bool) { return s.c.question(s.s) }

// question renders the pending question of an engine session with entity
// and set names; done is true once the session has finished.
func (c *Collection) question(s *discovery.Session) (Question, bool) {
	if set, ok := s.PendingConfirm(); ok {
		return Question{Confirm: set.Name}, false
	}
	if members, sem, ok := s.PendingSubset(); ok {
		names := make([]string, len(members))
		for i, e := range members {
			names[i] = c.c.EntityName(e)
		}
		return Question{Subset: names, Semantics: sem.String()}, false
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
