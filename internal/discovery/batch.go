package discovery

import (
	"errors"
	"fmt"

	"setdiscovery/internal/dataset"
)

// BatchStats counts how a Batch's selections were served. A member
// selection goes through the members' SelectionMemo (Options.Memo), which
// either computes it or serves it from an earlier computation — by a
// sibling, by a solo session on the same memo, or by a concurrent
// computation the member waited on; without a memo every selection is
// computed. For N identical members on a cold memo, Selections stays at a
// solo session's count while SelectionsShared absorbs the other N−1 per
// round.
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

// Batch is N discovery sessions over one collection that run under one
// Options: they share its strategy instance and its SelectionMemo, so
// members parked at the same candidate-set state pay one strategy
// selection between them. Each member is an ordinary Session with its own
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

// NewBatch starts one session per seed (a seed is the member's initial
// example set), each as NewSession starts one under opts. The members share
// the one strategy instance of opts and its Memo; without a Memo they share
// no selection. A seed contained in no candidate yields a member that is
// immediately done with ErrNoCandidates from its Result, mirroring
// NewSession.
func NewBatch(c *dataset.Collection, seeds [][]dataset.Entity, opts Options) (*Batch, error) {
	if len(seeds) == 0 {
		return nil, errors.New("discovery: NewBatch requires at least one seed")
	}
	b := &Batch{members: make([]*Session, 0, len(seeds))}
	opts.stats = &b.stats
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
