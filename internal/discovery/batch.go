package discovery

import (
	"errors"
	"fmt"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
)

// BatchStats counts how a Batch's selections were served. Every member
// selection goes through the batch's SelectionMemo (the collection's, or one
// the batch owns), which either computes it or serves it from an earlier
// computation — by a sibling, by a solo session on the same collection, or
// by a concurrent computation the member waited on. For N identical members
// on a cold memo, Selections stays at a solo session's count while
// SelectionsShared absorbs the other N−1 per round.
type BatchStats struct {
	// Selections counts strategy selections the members computed, including
	// the unshareable per-member exclusion-path ones ("don't know" members
	// bypass the memo).
	Selections       int64
	SelectionsShared int64 // selections the memo served to members
}

// count records one member selection: computed by the member, or served.
// A nil receiver (a solo session's) counts nothing.
func (st *BatchStats) count(computed bool) {
	if st == nil {
		return
	}
	if computed {
		st.Selections++
	} else {
		st.SelectionsShared++
	}
}

// Batch is N discovery sessions over one collection that share one strategy
// instance and one SelectionMemo, so members parked at the same
// candidate-set state pay one strategy selection between them (the ROADMAP
// "Batch discovery API"). Each member is an ordinary Session with its own
// scratch; the memo is the only thing that makes a batch cheaper than its
// members run alone.
//
// A Batch and its member sessions form one single-user object: all calls
// (including calls on sessions obtained via Member) must be externally
// serialised, because the members share one strategy instance. Members may
// be answered in any order and across any number of rounds — sharing
// degrades gracefully to a solo session's cost, never below it, and
// correctness does not depend on members staying in lockstep.
type Batch struct {
	members []*Session
	stats   BatchStats
}

// share fills in what the members of a batch share: the strategy instance
// minted from f (group batches carry theirs in opts.Group), the selection
// memo — the caller's, else one owned by the batch — and the counters.
func (b *Batch) share(f strategy.Factory, opts *Options) {
	opts.stats = &b.stats
	if opts.Group != nil {
		// Group selections are not entity-memoisable (see Options.Group).
		return
	}
	opts.Strategy = f.New()
	if opts.Memo == nil {
		opts.Memo = NewSelectionMemo(0)
	}
}

// checkBatchArgs is the construction contract NewBatch and DecodeBatch share.
func checkBatchArgs(op string, f strategy.Factory, opts Options) error {
	if f == nil && opts.Group == nil {
		return fmt.Errorf("discovery: %s requires a strategy factory", op)
	}
	if opts.Strategy != nil {
		return fmt.Errorf("discovery: Options.Strategy must be nil for %s; the batch mints one shared instance from the factory", op)
	}
	return nil
}

// NewBatch starts one session per seed (a seed is the member's initial
// example set), all sharing one strategy instance and one selection memo.
// opts.Strategy must be nil: the batch mints the single shared instance
// from f itself. opts.Memo, when set, is the memo the members share (a
// collection's, so a batch also shares with solo sessions); otherwise the
// batch owns one. A seed contained in no candidate yields a member that is
// immediately done with ErrNoCandidates from its Result, mirroring
// NewSession.
func NewBatch(c *dataset.Collection, seeds [][]dataset.Entity, f strategy.Factory, opts Options) (*Batch, error) {
	if err := checkBatchArgs("NewBatch", f, opts); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, errors.New("discovery: NewBatch requires at least one seed")
	}
	b := &Batch{members: make([]*Session, 0, len(seeds))}
	b.share(f, &opts)
	for i, initial := range seeds {
		s, err := NewSession(c, initial, opts)
		if err != nil {
			return nil, fmt.Errorf("discovery: batch member %d: %w", i, err)
		}
		b.members = append(b.members, s)
	}
	return b, nil
}

// Len returns the number of member sessions.
func (b *Batch) Len() int { return len(b.members) }

// Member returns the i-th member session. The session is live — callers may
// drive it with Next/PendingConfirm/Answer/Result — but it remains part of
// the batch's single-user scope and must not be used concurrently with the
// batch or its siblings.
func (b *Batch) Member(i int) *Session { return b.members[i] }

// Answer applies a member's reply. Equivalent to b.Member(i).Answer(a).
func (b *Batch) Answer(i int, a Answer) error { return b.members[i].Answer(a) }

// Done reports whether every member session has finished.
func (b *Batch) Done() bool {
	for _, s := range b.members {
		if !s.Done() {
			return false
		}
	}
	return true
}

// Stats returns the batch's selection counters.
func (b *Batch) Stats() BatchStats { return b.stats }
