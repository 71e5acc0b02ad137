// Package discovery implements the interactive set-discovery loop of §4.5
// (Algorithm 2) together with the §6 extensions: "don't know" answers,
// recovery from erroneous answers by backtracking, and multiple-choice
// (batch) questions.
//
// The loop filters the collection to the supersets of a user-provided
// initial example set, then repeatedly asks the membership question chosen
// by an entity-selection strategy until a single candidate remains or a
// halt condition fires.
package discovery

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/strategy"
)

// Answer is a user's reply to a membership question.
type Answer int

const (
	// No: the entity is not in the target set.
	No Answer = iota
	// Yes: the entity is in the target set.
	Yes
	// Unknown: the user cannot tell (§6 "Unanswered questions").
	Unknown
)

// String renders the answer.
func (a Answer) String() string {
	switch a {
	case No:
		return "no"
	case Yes:
		return "yes"
	case Unknown:
		return "don't know"
	default:
		return "Answer(?)"
	}
}

// Oracle answers membership questions. Implementations simulate users in
// the experiments; cmd/setdisc wires one to standard input.
type Oracle interface {
	Answer(e dataset.Entity) Answer
}

// GroupOracle is an optional Oracle capability: answering set-valued
// questions (Options.Group sessions). Run requires it for group sessions.
type GroupOracle interface {
	AnswerSubset(members []dataset.Entity, sem grouptest.Semantics) Answer
}

// Confirmer is an optional Oracle capability: once discovery has narrowed
// the candidates to a single set, the user confirms or rejects it. A
// rejection signals that some earlier answer was wrong, which is the
// trigger for §6's backtracking recovery — with one question at a time an
// erroneous answer can never empty the candidate set (informative entities
// always split it), it silently leads to the wrong leaf instead.
type Confirmer interface {
	Confirm(s *dataset.Set) bool
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(e dataset.Entity) Answer

// Answer implements Oracle.
func (f OracleFunc) Answer(e dataset.Entity) Answer { return f(e) }

// TargetOracle answers truthfully for a known target set — the simulated
// user of §5 ("user answers ... were simulated by verifying them against the
// output of the target query").
type TargetOracle struct{ Target *dataset.Set }

// Answer implements Oracle.
func (o TargetOracle) Answer(e dataset.Entity) Answer {
	if o.Target.Contains(e) {
		return Yes
	}
	return No
}

// Confirm implements Confirmer: only the true target is accepted.
func (o TargetOracle) Confirm(s *dataset.Set) bool { return s == o.Target }

// AnswerSubset implements GroupOracle truthfully for the known target.
func (o TargetOracle) AnswerSubset(members []dataset.Entity, sem grouptest.Semantics) Answer {
	if sem == grouptest.SubsetOfTarget {
		for _, e := range members {
			if !o.Target.Contains(e) {
				return No
			}
		}
		return Yes
	}
	for _, e := range members {
		if o.Target.Contains(e) {
			return Yes
		}
	}
	return No
}

// NoisyOracle wraps an oracle and flips its yes/no answers with probability
// P (§6 "Possibility of errors in answers"). Unknown answers pass through.
type NoisyOracle struct {
	Inner Oracle
	P     float64
	R     *rng.RNG
	Flips int // number of answers flipped so far
}

// Answer implements Oracle.
func (o *NoisyOracle) Answer(e dataset.Entity) Answer {
	a := o.Inner.Answer(e)
	if a == Unknown || o.R.Float64() >= o.P {
		return a
	}
	o.Flips++
	if a == Yes {
		return No
	}
	return Yes
}

// AnswerSubset implements GroupOracle: group answers flip with the same
// probability as entity answers (a lying group oracle, for §6 recovery).
// An inner oracle without group support yields Unknown.
func (o *NoisyOracle) AnswerSubset(members []dataset.Entity, sem grouptest.Semantics) Answer {
	g, ok := o.Inner.(GroupOracle)
	if !ok {
		return Unknown
	}
	a := g.AnswerSubset(members, sem)
	if a == Unknown || o.R.Float64() >= o.P {
		return a
	}
	o.Flips++
	if a == Yes {
		return No
	}
	return Yes
}

// Confirm forwards to the inner oracle: §6 models mistakes in membership
// answers, while the user reliably recognises their own set when shown it.
// When the inner oracle cannot confirm, any set is accepted.
func (o *NoisyOracle) Confirm(s *dataset.Set) bool {
	if c, ok := o.Inner.(Confirmer); ok {
		return c.Confirm(s)
	}
	return true
}

// UnsureOracle wraps an oracle and answers Unknown for the given entities.
type UnsureOracle struct {
	Inner  Oracle
	Unsure map[dataset.Entity]bool
}

// Answer implements Oracle.
func (o UnsureOracle) Answer(e dataset.Entity) Answer {
	if o.Unsure[e] {
		return Unknown
	}
	return o.Inner.Answer(e)
}

// AnswerSubset implements GroupOracle: a question touching any unsure
// entity is unanswerable as a whole. An inner oracle without group support
// yields Unknown too.
func (o UnsureOracle) AnswerSubset(members []dataset.Entity, sem grouptest.Semantics) Answer {
	for _, e := range members {
		if o.Unsure[e] {
			return Unknown
		}
	}
	if g, ok := o.Inner.(GroupOracle); ok {
		return g.AnswerSubset(members, sem)
	}
	return Unknown
}

// Confirm forwards to the inner oracle; without inner support any set is
// accepted.
func (o UnsureOracle) Confirm(s *dataset.Set) bool {
	if c, ok := o.Inner.(Confirmer); ok {
		return c.Confirm(s)
	}
	return true
}

// Question records one asked question and its answer. A set-valued
// (group-testing) question carries its subset and semantics and leaves
// Entity zero; Subset == nil marks the ordinary entity kind. It is the one
// question value of a Session: the pending question, each backtracking
// trail entry and each asked-log entry.
type Question struct {
	Entity    dataset.Entity
	Subset    []dataset.Entity
	Semantics grouptest.Semantics
	Answer    Answer
}

// sameQuestion reports whether q and o ask about the same entity or subset
// (kind-sensitive; answers are not compared).
func (q Question) sameQuestion(o Question) bool {
	if o.Subset == nil {
		return q.Subset == nil && q.Entity == o.Entity
	}
	return q.Semantics == o.Semantics && slices.Equal(q.Subset, o.Subset)
}

// apply narrows the candidates cs by the answered question (lines 8–12)
// through the session scratch: it partitions by the entity, or by the
// subset under its semantics, and keeps the half q.Answer picks. The half
// ruled out, which nothing can ever reference, is recycled on the spot.
func (q Question) apply(cs *dataset.Subset, sc *dataset.Scratch) *dataset.Subset {
	var yes, no *dataset.Subset
	if q.Subset == nil {
		yes, no = cs.PartitionScratch(q.Entity, sc)
	} else {
		yes, no = cs.PartitionGroupScratch(q.Subset, q.Semantics == grouptest.SubsetOfTarget, sc)
	}
	if q.Answer == Yes {
		no.Release()
		return yes
	}
	yes.Release()
	return no
}

// Options configures a discovery run.
type Options struct {
	// Strategy selects the next question; required. The instance is owned
	// by this run: when several sessions run concurrently, mint one
	// instance per session from a shared strategy.Factory (the sessions
	// then share the factory's concurrency-safe lookahead cache, and the
	// free list each selection borrows its scratch from, so an instance
	// costs its own small allocation and no arena).
	Strategy strategy.Strategy
	// MaxQuestions is the halt condition Γ: stop after this many questions
	// (0 = unlimited).
	MaxQuestions int
	// Backtrack enables recovery from contradictory answers (§6): when no
	// candidate remains, previously given answers are revisited.
	Backtrack bool
	// MaxBacktracks caps the number of answer flips tried during recovery
	// (default 64 when Backtrack is set).
	MaxBacktracks int
	// BatchSize asks that many membership questions per interaction (§6
	// "Multiple-choice examples"); 0 or 1 means one question at a time.
	BatchSize int
	// ConfirmTarget asks the oracle to confirm the discovered set when it
	// implements Confirmer; a rejection triggers backtracking (§6 error
	// recovery). Requires Backtrack for recovery to proceed.
	ConfirmTarget bool

	// Group switches the session to set-valued (group-testing) questions:
	// every interaction asks about a subset of entities chosen by this
	// strategy instead of a single entity. Group sessions ignore Strategy,
	// BatchSize and Memo (subset selections are not entity-memoisable);
	// questions surface through Session.PendingSubset and answers partition
	// by the subset's semantics. An Unknown reply excludes every member of
	// the subset. Group strategies are immutable values, so one may serve
	// any number of sessions at once.
	Group grouptest.Strategy

	// Memo, when non-nil, routes the session's selections through a
	// collection-wide SelectionMemo so concurrent and successive sessions at
	// the same candidate-set state share one strategy computation. MemoAux
	// must hash every option that changes what selectBatch returns (strategy
	// identity and parameters, batch size) — two sessions share an entry only
	// when their keys agree on it. Runtime wiring, not behaviour: selections
	// are byte-identical with or without a memo, and the memo is not part of
	// the encoded session state. A Batch's members share it like every other
	// option; without one they share no selection.
	Memo    *SelectionMemo
	MemoAux uint64

	// stats is the counter set of the Batch the session is a member of
	// (set by NewBatch and DecodeBatch); nil for solo sessions.
	stats *BatchStats
}

// withDefaults checks what every session needs, a Strategy or a Group, and
// fills in the default MaxBacktracks of 64 under Backtrack.
func (o Options) withDefaults() (Options, error) {
	if o.Strategy == nil && o.Group == nil {
		return o, errors.New("discovery: Options.Strategy is required")
	}
	if o.Backtrack && o.MaxBacktracks == 0 {
		o.MaxBacktracks = 64
	}
	return o, nil
}

// Result reports the outcome of a discovery run.
type Result struct {
	// Candidates holds the sets still consistent with all answers.
	Candidates *dataset.Subset
	// Target is the uniquely discovered set, nil when discovery halted
	// with several candidates (or none).
	Target *dataset.Set
	// Questions is the number of membership questions answered (including
	// "don't know" replies).
	Questions int
	// Interactions counts user round-trips; with batching one interaction
	// covers several questions.
	Interactions int
	// Unknowns counts "don't know" replies.
	Unknowns int
	// Backtracks counts answer flips performed during error recovery.
	Backtracks int
	// Asked is the chronological question log. After backtracking, flipped
	// answers are updated in place; answers given on abandoned branches
	// remain in the log as asked (they cost the user an interaction even
	// though their constraint was discarded).
	Asked []Question
	// SelectionTime is the total time spent choosing questions — the
	// paper's "discovery time", excluding the user's thinking time.
	SelectionTime time.Duration
}

// ErrNoCandidates is returned when no set in the collection contains the
// initial example set.
var ErrNoCandidates = errors.New("discovery: no candidate set contains the initial examples")

// ErrContradiction is returned when the answers rule out every candidate
// and backtracking is disabled or exhausted.
var ErrContradiction = errors.New("discovery: answers are inconsistent with every candidate set")

// trailEntry records state needed to revisit an answer: the candidates
// before the question was applied, the question with the answer as applied
// (after any flip), and whether recovery already flipped it.
type trailEntry struct {
	before *dataset.Subset
	Question
	flipped bool
}

// Run executes Algorithm 2: filter the collection to supersets of initial,
// then ask strategy-selected membership questions until one candidate
// remains, the halt condition fires, or the informative entities are
// exhausted by "don't know" replies.
//
// Run is the synchronous driver over the resumable Session: it pumps the
// session's pending questions into the Oracle until the session is done.
// Callers that cannot block on an oracle callback (a serving layer, a
// message-driven UI) use Session directly.
func Run(c *dataset.Collection, initial []dataset.Entity, o Oracle, opts Options) (*Result, error) {
	confirmer, canConfirm := o.(Confirmer)
	if opts.ConfirmTarget && !canConfirm {
		// An oracle without confirmation support skips the §6 confirmation
		// step entirely (it is not counted as a question).
		opts.ConfirmTarget = false
	}
	s, err := NewSession(c, initial, opts)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if set, ok := s.PendingConfirm(); ok {
			a := No
			if confirmer.Confirm(set) {
				a = Yes
			}
			if err := s.Answer(a); err != nil {
				return nil, err
			}
			continue
		}
		if members, sem, ok := s.PendingSubset(); ok {
			g, canGroup := o.(GroupOracle)
			if !canGroup {
				return nil, errors.New("discovery: group session requires a GroupOracle")
			}
			if err := s.Answer(g.AnswerSubset(members, sem)); err != nil {
				return nil, err
			}
			continue
		}
		e, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(o.Answer(e)); err != nil {
			return nil, err
		}
	}
	return s.Result()
}

// selectBatch picks the entities for the next interaction: the strategy's
// choice, plus (BatchSize−1) further entities ranked by 1-step bound for
// multiple-choice interactions. Selection time is accounted to the result.
// sc backs the batch ranking's entity counting.
func selectBatch(cs *dataset.Subset, opts Options, excluded map[dataset.Entity]bool, res *Result, sc *dataset.Scratch) ([]dataset.Entity, bool) {
	start := time.Now()
	defer func() { res.SelectionTime += time.Since(start) }()

	first, ok := selectOne(cs, opts.Strategy, excluded)
	if !ok {
		return nil, false
	}
	batch := []dataset.Entity{first}
	if opts.BatchSize <= 1 {
		return batch, true
	}
	// Remaining picks: most even splits first (the cheap §6 variant that
	// avoids the combinatorial expected-gain search).
	n := cs.Size()
	type cand struct {
		e      dataset.Entity
		uneven int
	}
	var cands []cand
	for _, ec := range cs.InformativeEntitiesInto(sc) {
		if ec.Entity == first || excluded[ec.Entity] {
			continue
		}
		cands = append(cands, cand{ec.Entity, absInt(2*ec.Count - n)})
	}
	for len(batch) < opts.BatchSize && len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].uneven < cands[best].uneven ||
				(cands[i].uneven == cands[best].uneven && cands[i].e < cands[best].e) {
				best = i
			}
		}
		batch = append(batch, cands[best].e)
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return batch, true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// selectOne asks the strategy for the next entity, honouring exclusions.
func selectOne(cs *dataset.Subset, sel strategy.Strategy, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	if len(excluded) == 0 {
		return sel.Select(cs)
	}
	if ex, ok := sel.(strategy.Excluder); ok {
		return ex.SelectExcluding(cs, excluded)
	}
	// Fallback for strategies without exclusion support: take their pick
	// unless excluded, else the most even non-excluded entity.
	if e, ok := sel.Select(cs); ok && !excluded[e] {
		return e, true
	}
	return strategy.MostEven{}.SelectExcluding(cs, excluded)
}

// backtrack implements §6 error recovery: walk the trail backwards flipping
// the most recent answer that has not been flipped yet, and restart from
// that point. It truncates the trail and installs the restored candidate
// set, re-applied through the session scratch, in place of the superseded
// one. On error s.cs is left for finish to dispose of.
func (s *Session) backtrack() error {
	if !s.opts.Backtrack {
		return ErrContradiction
	}
	res := s.res
	for i := len(s.trail) - 1; i >= 0; i-- {
		if s.trail[i].flipped {
			continue
		}
		if res.Backtracks >= s.opts.MaxBacktracks {
			return fmt.Errorf("%w (backtrack limit %d reached)",
				ErrContradiction, s.opts.MaxBacktracks)
		}
		res.Backtracks++
		// Flip a copy of the entry; it replaces entry i below.
		e := s.trail[i]
		if e.Answer == Yes {
			e.Answer = No
		} else {
			e.Answer = Yes
		}
		e.flipped = true
		cs := e.apply(e.before, s.scratch)
		// Record the flip in the asked log so Asked reflects answers as
		// finally used.
		for j := len(res.Asked) - 1; j >= 0; j-- {
			if res.Asked[j].sameQuestion(e.Question) {
				res.Asked[j].Answer = e.Answer
				break
			}
		}
		// Entries above i are already-flipped answers of abandoned branches;
		// truncation drops them for good, so their retained pre-partition
		// sets go back to the pool (entry i's own subset lives on in the
		// re-appended flipped entry).
		for j := i + 1; j < len(s.trail); j++ {
			s.trail[j].before.Release()
		}
		s.trail = append(s.trail[:i], e)
		if cs.Size() > 0 {
			// The superseded candidate set (the rejected single candidate,
			// or the emptied set of a contradiction) is referenced by
			// nothing else: trail entries hold pre-partition sets and
			// snapshots detach first.
			s.cs.Release()
			s.cs = cs // lint:owns — the session owns cs; finish/releaseTrail recycle it.
			return nil
		}
		// Still contradictory: recycle the empty restore and keep unwinding.
		cs.Release()
	}
	return ErrContradiction
}
