package setdiscovery

import (
	"errors"
	"fmt"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
)

// Seed is the starting point of one batch member: its initial example
// entities (Algorithm 2 line 1). An empty Initial starts from the whole
// collection.
type Seed struct {
	Initial []string
}

// BatchStats reports how a Batch's member selections were served: computed
// by a member (Selections) or served from the collection's selection memo
// (SelectionsShared).
type BatchStats = discovery.BatchStats

// Batch runs N resumable discovery sessions over one collection that share
// one strategy instance and the collection's selection memo: members whose
// answers have narrowed them to the same candidate-set state share one
// strategy selection, instead of each paying the full selection cost as N
// independent Sessions would. The memo is the one every Session and
// Discover call on the collection selects through, so members also share
// with those. Every member still asks exactly the questions its own solo
// Session would ask — sharing is an optimisation, never a behaviour change
// (test-pinned).
//
// The protocol is round-based: fetch each live member's Question, apply the
// answers with Answer (or AnswerMember), repeat until Done. Members may
// progress at different speeds; a member whose answers diverge from its
// siblings simply stops sharing their work.
//
// A Batch serves one caller: its methods (and any interleaved use of the
// underlying sessions) must be externally serialised. Any number of Batches
// and Sessions may run concurrently over one shared Collection.
type Batch struct {
	c *Collection
	b *discovery.Batch

	// cfg is the configuration the batch was created under, embedded in
	// Snapshot so RestoreBatch rebuilds identical options.
	cfg config
}

// NewBatch starts one suspended discovery session per seed, all under the
// options NewSession would give one, so members at equal states share
// selection work (the batch analogue of NewSession). A seed naming an
// unknown entity fails construction with ErrNoCandidates; a seed whose
// examples no set contains yields a member that is immediately done and
// reports ErrNoCandidates from Result, mirroring Discover.
func (c *Collection) NewBatch(seeds []Seed, opts ...Option) (*Batch, error) {
	if len(seeds) == 0 {
		return nil, errors.New("setdiscovery: NewBatch requires at least one seed")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	o, err := c.engineOptions(cfg)
	if err != nil {
		return nil, err
	}
	inits := make([][]dataset.Entity, len(seeds))
	for i, seed := range seeds {
		init, err := c.lookupInitial(seed.Initial)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
		inits[i] = init
	}
	b, err := discovery.NewBatch(c.c, inits, o)
	if err != nil {
		return nil, err
	}
	return &Batch{c: c, b: b, cfg: cfg}, nil
}

// Len returns the number of members.
func (b *Batch) Len() int { return b.b.Len() }

// member returns the i-th member session; like indexing a slice, an
// out-of-range member is a programming error and panics. The answering
// path (AnswerMember, Answer) returns an error instead, because there the
// index typically arrives from a wire request.
func (b *Batch) member(i int) *discovery.Session {
	if i < 0 || i >= b.b.Len() {
		panic(fmt.Sprintf("setdiscovery: batch has no member %d (Len %d)", i, b.b.Len()))
	}
	return b.b.Member(i)
}

// Question returns member i's pending question; done is true once that
// member has finished. Like Session.Next it is idempotent. It panics when
// i is out of range, as do the other read accessors.
func (b *Batch) Question(i int) (Question, bool) { return b.c.question(b.member(i)) }

// MemberDone reports whether member i has finished.
func (b *Batch) MemberDone(i int) bool { return b.member(i).Done() }

// MemberQuestions returns the number of questions member i has been asked
// so far (cheap: no result snapshot is taken).
func (b *Batch) MemberQuestions(i int) int { return b.member(i).Questions() }

// Done reports whether every member has finished.
func (b *Batch) Done() bool { return b.b.Done() }

// MemberAnswer pairs a member index with its reply for Batch.Answer.
type MemberAnswer struct {
	Member int
	Answer Answer
}

// Answer applies one round of replies — at most one per live member. It
// stops at the first invalid entry (member out of range, or answering a
// finished member); replies already applied stay applied. Serving layers
// that need per-member error reporting use AnswerMember directly.
func (b *Batch) Answer(answers ...MemberAnswer) error {
	for _, ma := range answers {
		if err := b.AnswerMember(ma.Member, ma.Answer); err != nil {
			return err
		}
	}
	return nil
}

// AnswerMember applies one member's reply.
func (b *Batch) AnswerMember(i int, a Answer) error {
	if i < 0 || i >= b.b.Len() {
		return fmt.Errorf("setdiscovery: batch has no member %d", i)
	}
	if err := b.b.Answer(i, a); err != nil {
		return fmt.Errorf("member %d: %w", i, err)
	}
	return nil
}

// Result returns member i's outcome: final once the member is done,
// otherwise a progress snapshot, with the same semantics as Session.Result
// (including ErrNoCandidates / ErrContradiction for failed members).
func (b *Batch) Result(i int) (*Result, error) {
	res, err := b.member(i).Result()
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// Stats returns the batch's selection counters: selections its members
// computed versus selections the memo served them.
func (b *Batch) Stats() BatchStats { return b.b.Stats() }
