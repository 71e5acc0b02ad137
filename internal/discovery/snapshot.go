package discovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/tree"
)

// Portable session state: a compact versioned binary encoding of the
// Session/TreeSession/Batch state machines, so a suspended discovery can
// cross process boundaries — persisted by a serving layer, exported over
// HTTP, migrated between engines by a router — and resume byte-identically:
// the restored session asks the same remaining questions, keeps the same
// counters and produces the same Result as the never-suspended original
// (test-pinned).
//
// The encoding covers exactly the resumable state: the candidate set (member
// indexes plus its 128-bit fingerprint as an integrity guard), the asked and
// excluded ("don't know") entity sets, the backtracking trail with each
// entry's pre-partition candidate set, the in-flight multiple-choice batch,
// and the Result counters. What it deliberately does not cover: the
// collection (the caller supplies it and is guarded by the public layer's
// collection fingerprint), the strategy (reconstructed from options —
// selections are pure functions of the candidate set, so a fresh instance
// picks identical questions), and the memo caches (performance state, not
// behaviour).
//
// Decoders treat input as untrusted: every count is bounded by the remaining
// input, every set index and entity is range-checked, and the decoded
// candidate set must reproduce its recorded fingerprint. Malformed input
// yields an error, never a panic (fuzz-enforced alongside the wire
// decoders).

// stateVersion is the version byte leading every encoded state. Bump it
// when the layout changes; decoders reject versions they do not know.
//
// Version 2 carries the set-valued question kind of group sessions
// (Options.Group): a pending-subset section, and per-question kind bytes in
// the trail and asked log. Sessions without a group strategy keep emitting
// version 1 byte-identically; a version-2 state requires group options to
// decode (and vice versa), so the two layouts can never be confused.
const (
	stateVersion      = 1
	stateVersionGroup = 2
)

// errCorruptState is wrapped by every decoder failure.
var errCorruptState = errors.New("discovery: corrupt session state")

// terminal error codes of a done session.
const (
	errCodeNone          = 0
	errCodeNoCandidates  = 1
	errCodeContradiction = 2
	errCodeBacktrackLim  = 3
)

// stateWriter appends the primitive encodings.
type stateWriter struct {
	buf []byte
}

func (w *stateWriter) u8(b byte) { w.buf = append(w.buf, b) }

func (w *stateWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *stateWriter) bool(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// entities writes an entity list verbatim (order is meaningful: the
// in-flight interaction batch is strategy-ranked, not sorted).
func (w *stateWriter) entities(list []dataset.Entity) {
	w.uvarint(uint64(len(list)))
	for _, e := range list {
		w.uvarint(uint64(e))
	}
}

// members writes a strictly increasing set-index list as first value plus
// gaps, the canonical subset encoding.
func (w *stateWriter) members(list []uint32) {
	w.uvarint(uint64(len(list)))
	prev := uint32(0)
	for i, v := range list {
		if i == 0 {
			w.uvarint(uint64(v))
		} else {
			w.uvarint(uint64(v - prev)) // ≥ 1: the list is strictly increasing
		}
		prev = v
	}
}

func (w *stateWriter) subset(s *dataset.Subset) {
	w.members(s.Members())
}

func (w *stateWriter) fingerprint(fp dataset.Fingerprint) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, fp.Hi)
	w.buf = binary.BigEndian.AppendUint64(w.buf, fp.Lo)
}

// stateReader consumes the primitive encodings, validating as it goes.
type stateReader struct {
	data []byte
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorruptState, fmt.Sprintf(format, args...))
}

func (r *stateReader) u8() (byte, error) {
	if len(r.data) == 0 {
		return 0, corrupt("truncated input")
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b, nil
}

func (r *stateReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		return 0, corrupt("bad varint")
	}
	r.data = r.data[n:]
	return v, nil
}

func (r *stateReader) bool() (bool, error) {
	b, err := r.u8()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, corrupt("bad bool %d", b)
	}
	return b == 1, nil
}

// count reads a list length and bounds it by the remaining input (every
// element costs at least one byte), so a hostile length cannot force a huge
// allocation.
func (r *stateReader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)) {
		return 0, corrupt("count %d exceeds remaining input", v)
	}
	return int(v), nil
}

// entity reads one entity ID (bounded to uint32, the engine-wide entity
// width).
func (r *stateReader) entity() (dataset.Entity, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, corrupt("entity %d overflows", v)
	}
	return dataset.Entity(v), nil
}

func (r *stateReader) entities() ([]dataset.Entity, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]dataset.Entity, n)
	for i := range out {
		if out[i], err = r.entity(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// subset reads a member-index list and rebinds it to c, rejecting indexes
// beyond the collection and non-canonical (unsorted or duplicated) lists.
func (r *stateReader) subset(c *dataset.Collection) (*dataset.Subset, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	members := make([]uint32, n)
	prev := uint64(0)
	for i := range members {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			if v == 0 {
				return nil, corrupt("subset members not strictly increasing")
			}
			v += prev
		}
		if v >= uint64(c.Len()) {
			return nil, corrupt("subset references set %d of %d", v, c.Len())
		}
		members[i] = uint32(v)
		prev = v
	}
	return c.SubsetOf(members), nil
}

func (r *stateReader) fingerprint() (dataset.Fingerprint, error) {
	if len(r.data) < 16 {
		return dataset.Fingerprint{}, corrupt("truncated fingerprint")
	}
	fp := dataset.Fingerprint{
		Hi: binary.BigEndian.Uint64(r.data[:8]),
		Lo: binary.BigEndian.Uint64(r.data[8:16]),
	}
	r.data = r.data[16:]
	return fp, nil
}

func (r *stateReader) answer() (Answer, error) {
	b, err := r.u8()
	if err != nil {
		return 0, err
	}
	if b > 2 {
		return 0, corrupt("bad answer %d", b)
	}
	return Answer(b), nil
}

// question reads one asked-question key: in a version-1 state a bare
// entity, in a version-2 (group) state a kind byte followed by an entity
// (kind 0) or semantics plus a non-empty subset (kind 1).
func (r *stateReader) question(group bool) (dataset.Entity, []dataset.Entity, grouptest.Semantics, error) {
	if !group {
		e, err := r.entity()
		return e, nil, 0, err
	}
	kind, err := r.u8()
	if err != nil {
		return 0, nil, 0, err
	}
	switch kind {
	case 0:
		e, err := r.entity()
		return e, nil, 0, err
	case 1:
		sem, err := r.u8()
		if err != nil {
			return 0, nil, 0, err
		}
		if sem > byte(grouptest.SubsetOfTarget) {
			return 0, nil, 0, corrupt("bad subset semantics %d", sem)
		}
		members, err := r.entities()
		if err != nil {
			return 0, nil, 0, err
		}
		if len(members) == 0 {
			return 0, nil, 0, corrupt("empty question subset")
		}
		return 0, members, grouptest.Semantics(sem), nil
	default:
		return 0, nil, 0, corrupt("bad question kind %d", kind)
	}
}

// EncodeState serializes the session's resumable state. It is
// non-destructive: the session continues unaffected, so a serving layer can
// export state on every round-trip. Restore with DecodeSession (or
// NewBatch's decoding counterpart for batch members).
func (s *Session) EncodeState() []byte {
	w := &stateWriter{buf: make([]byte, 0, 256)}
	if s.opts.Group != nil {
		w.u8(stateVersionGroup)
	} else {
		w.u8(stateVersion)
	}
	s.encodeInto(w)
	return w.buf
}

func (s *Session) encodeInto(w *stateWriter) {
	group := s.opts.Group != nil
	w.u8(byte(s.state))
	var flags byte
	if s.inBatch {
		flags |= 1
	}
	if s.contradiction {
		flags |= 2
	}
	if s.cs != nil {
		flags |= 4
	}
	if group && s.pendingSub != nil {
		flags |= 8
	}
	w.u8(flags)
	w.uvarint(uint64(s.pending))
	if flags&8 != 0 {
		w.u8(byte(s.pendingSem))
		w.entities(s.pendingSub)
	}
	if s.confirm != nil {
		w.uvarint(uint64(s.confirm.Index) + 1)
	} else {
		w.uvarint(0)
	}
	w.entities(s.batch)
	w.entities(sortedEntities(s.excluded))
	if s.cs != nil {
		w.subset(s.cs)
		w.fingerprint(s.cs.Fingerprint())
	}
	w.uvarint(uint64(len(s.trail)))
	for _, te := range s.trail {
		w.subset(te.before)
		if group {
			if te.subset != nil {
				w.u8(1)
				w.u8(byte(te.sem))
				w.entities(te.subset)
			} else {
				w.u8(0)
				w.uvarint(uint64(te.entity))
			}
		} else {
			w.uvarint(uint64(te.entity))
		}
		w.u8(byte(te.answer))
		w.bool(te.flipped)
	}
	w.uvarint(uint64(s.res.Questions))
	w.uvarint(uint64(s.res.Interactions))
	w.uvarint(uint64(s.res.Unknowns))
	w.uvarint(uint64(s.res.Backtracks))
	w.uvarint(uint64(s.res.SelectionTime))
	w.uvarint(uint64(len(s.res.Asked)))
	for _, q := range s.res.Asked {
		if group {
			if q.Subset != nil {
				w.u8(1)
				w.u8(byte(q.Semantics))
				w.entities(q.Subset)
			} else {
				w.u8(0)
				w.uvarint(uint64(q.Entity))
			}
		} else {
			w.uvarint(uint64(q.Entity))
		}
		w.u8(byte(q.Answer))
	}
	if s.state == stateDone {
		code := errCodeNone
		switch {
		case s.err == nil:
		case errors.Is(s.err, ErrNoCandidates):
			code = errCodeNoCandidates
		case errors.Is(s.err, ErrContradiction):
			// The bare sentinel is plain contradiction; anything wrapping it
			// is the backtrack-limit variant (the only wrapper finish ever
			// produces — backtrack() wraps with the limit message).
			code = errCodeContradiction
			if s.err != ErrContradiction {
				code = errCodeBacktrackLim
			}
		default:
			// No other terminal error exists today; classify an unknown one
			// as contradiction rather than inventing a limit message.
			code = errCodeContradiction
		}
		w.u8(byte(code))
	}
}

// sortedEntities returns the keys of an excluded-entity map in increasing
// order, the canonical encoding of an order-free set.
func sortedEntities(m map[dataset.Entity]bool) []dataset.Entity {
	if len(m) == 0 {
		return nil
	}
	out := make([]dataset.Entity, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ { // insertion sort: excluded sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DecodeSession reconstructs a Session from EncodeState output, bound to c
// and resuming under opts (which must carry a Strategy instance, exactly as
// NewSession). The caller is responsible for supplying the same collection
// and behaviour-relevant options the state was captured under; the candidate
// set's recorded fingerprint guards against a mismatched collection.
func DecodeSession(c *dataset.Collection, opts Options, data []byte) (*Session, error) {
	r := &stateReader{data: data}
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != stateVersion && v != stateVersionGroup {
		return nil, corrupt("unknown state version %d", v)
	}
	s, err := decodeSessionInto(c, opts, r, v)
	if err != nil {
		return nil, err
	}
	if len(r.data) != 0 {
		return nil, corrupt("%d trailing bytes", len(r.data))
	}
	return s, nil
}

// decodeSessionInto decodes one session's state from r. It mirrors
// NewSession's construction (options normalisation, scratch wiring) but
// restores the suspended fields instead of running the opening selection.
func decodeSessionInto(c *dataset.Collection, opts Options, r *stateReader, version byte) (*Session, error) {
	group := version == stateVersionGroup
	if group && opts.Group == nil {
		return nil, corrupt("group state requires group options")
	}
	if !group && opts.Group != nil {
		return nil, corrupt("group options with a non-group state")
	}
	if opts.Strategy == nil && opts.Group == nil {
		return nil, errors.New("discovery: Options.Strategy is required")
	}
	if opts.Backtrack && opts.MaxBacktracks == 0 {
		opts.MaxBacktracks = 64
	}
	stateByte, err := r.u8()
	if err != nil {
		return nil, err
	}
	if stateByte > byte(stateDone) {
		return nil, corrupt("bad session state %d", stateByte)
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	validFlags := byte(7)
	if group {
		validFlags = 15
	}
	if flags&^validFlags != 0 {
		return nil, corrupt("bad flags %#x", flags)
	}
	pending, err := r.entity()
	if err != nil {
		return nil, err
	}
	var pendingSub []dataset.Entity
	var pendingSem grouptest.Semantics
	if flags&8 != 0 {
		if stateByte != byte(stateAsk) {
			return nil, corrupt("pending subset outside the asking state")
		}
		sem, err := r.u8()
		if err != nil {
			return nil, err
		}
		if sem > byte(grouptest.SubsetOfTarget) {
			return nil, corrupt("bad subset semantics %d", sem)
		}
		pendingSem = grouptest.Semantics(sem)
		if pendingSub, err = r.entities(); err != nil {
			return nil, err
		}
		if len(pendingSub) == 0 {
			return nil, corrupt("empty pending subset")
		}
	} else if group && stateByte == byte(stateAsk) {
		return nil, corrupt("group session asking without a pending subset")
	}
	confirmIdx, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if confirmIdx > uint64(c.Len()) {
		return nil, corrupt("confirm set %d of %d", confirmIdx-1, c.Len())
	}
	batch, err := r.entities()
	if err != nil {
		return nil, err
	}
	excludedList, err := r.entities()
	if err != nil {
		return nil, err
	}
	var cs *dataset.Subset
	if flags&4 != 0 {
		if cs, err = r.subset(c); err != nil {
			return nil, err
		}
		fp, err := r.fingerprint()
		if err != nil {
			return nil, err
		}
		if cs.Fingerprint() != fp {
			return nil, corrupt("candidate-set fingerprint mismatch (state from a different collection?)")
		}
	}
	nTrail, err := r.count()
	if err != nil {
		return nil, err
	}
	trail := make([]trailEntry, 0, nTrail)
	for i := 0; i < nTrail; i++ {
		before, err := r.subset(c)
		if err != nil {
			return nil, err
		}
		te := trailEntry{before: before}
		if te.entity, te.subset, te.sem, err = r.question(group); err != nil {
			return nil, err
		}
		if te.answer, err = r.answer(); err != nil {
			return nil, err
		}
		if te.flipped, err = r.bool(); err != nil {
			return nil, err
		}
		trail = append(trail, te)
	}
	res := &Result{}
	counters := []*int{&res.Questions, &res.Interactions, &res.Unknowns, &res.Backtracks}
	for _, dst := range counters {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, corrupt("counter %d overflows", v)
		}
		*dst = int(v)
	}
	selNS, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if selNS > math.MaxInt64 {
		return nil, corrupt("selection time overflows")
	}
	res.SelectionTime = time.Duration(selNS)
	nAsked, err := r.count()
	if err != nil {
		return nil, err
	}
	res.Asked = make([]Question, 0, nAsked)
	for i := 0; i < nAsked; i++ {
		var q Question
		if q.Entity, q.Subset, q.Semantics, err = r.question(group); err != nil {
			return nil, err
		}
		if q.Answer, err = r.answer(); err != nil {
			return nil, err
		}
		res.Asked = append(res.Asked, q)
	}

	excluded := make(map[dataset.Entity]bool, len(excludedList))
	for _, e := range excludedList {
		excluded[e] = true
	}
	s := &Session{
		c:             c,
		opts:          opts,
		res:           res,
		cs:            cs,
		excluded:      excluded,
		trail:         trail,
		batch:         batch,
		inBatch:       flags&1 != 0,
		contradiction: flags&2 != 0,
		state:         sessionState(stateByte),
		pending:       pending,
		pendingSub:    pendingSub,
		pendingSem:    pendingSem,
	}
	if !opts.noScratch {
		s.scratch = dataset.NewScratch()
	}
	if confirmIdx > 0 {
		s.confirm = c.Set(int(confirmIdx - 1))
	}

	switch s.state {
	case stateDone:
		code, err := r.u8()
		if err != nil {
			return nil, err
		}
		// finish() already ran before the snapshot: reconstruct its
		// outcome. The trail is always empty here (finish releases it).
		switch code {
		case errCodeNone, errCodeNoCandidates:
			if cs == nil {
				return nil, corrupt("done state without candidates")
			}
			if code == errCodeNoCandidates {
				s.err = ErrNoCandidates
			}
			res.Candidates = cs
			if code == errCodeNone && cs.Size() == 1 {
				res.Target = cs.Single()
			}
		case errCodeContradiction:
			s.err = ErrContradiction
			res.Candidates = c.SubsetOf(nil)
		case errCodeBacktrackLim:
			s.err = fmt.Errorf("%w (backtrack limit %d reached)",
				ErrContradiction, s.opts.MaxBacktracks)
			res.Candidates = c.SubsetOf(nil)
		default:
			return nil, corrupt("bad terminal error code %d", code)
		}
	case stateAsk, stateConfirm:
		if cs == nil {
			return nil, corrupt("live state without candidates")
		}
		if s.state == stateConfirm && s.confirm == nil {
			return nil, corrupt("confirming state without a confirm set")
		}
		res.Candidates = cs
	}
	return s, nil
}

// EncodeState serializes the tree walk's resumable state: the asked log (the
// path taken, which the decoder replays and verifies against the tree) plus
// the accounting the replay cannot reproduce.
func (s *TreeSession) EncodeState() []byte {
	w := &stateWriter{buf: make([]byte, 0, 64)}
	w.u8(stateVersion)
	w.bool(s.done)
	w.uvarint(uint64(s.res.SelectionTime))
	w.uvarint(uint64(len(s.res.Asked)))
	for _, q := range s.res.Asked {
		w.uvarint(uint64(q.Entity))
		w.u8(byte(q.Answer))
	}
	return w.buf
}

// DecodeTreeSession reconstructs a TreeSession over t by replaying the
// state's asked log from the root. Every replayed question is checked
// against the node it lands on, so state captured over a different tree (or
// corrupted) is rejected rather than silently walking to a wrong leaf.
func DecodeTreeSession(c *dataset.Collection, t *tree.Tree, data []byte) (*TreeSession, error) {
	r := &stateReader{data: data}
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != stateVersion {
		return nil, corrupt("unknown state version %d", v)
	}
	done, err := r.bool()
	if err != nil {
		return nil, err
	}
	selNS, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if selNS > math.MaxInt64 {
		return nil, corrupt("selection time overflows")
	}
	nAsked, err := r.count()
	if err != nil {
		return nil, err
	}
	s := NewTreeSession(c, t)
	for i := 0; i < nAsked; i++ {
		e, err := r.entity()
		if err != nil {
			return nil, err
		}
		a, err := r.answer()
		if err != nil {
			return nil, err
		}
		if s.done {
			return nil, corrupt("asked log longer than the tree path")
		}
		if s.n.Entity != e {
			return nil, corrupt("asked entity %d does not match the tree (state from a different tree?)", e)
		}
		if err := s.Answer(a); err != nil {
			return nil, err
		}
	}
	if len(r.data) != 0 {
		return nil, corrupt("%d trailing bytes", len(r.data))
	}
	if s.done != done {
		return nil, corrupt("done flag inconsistent with replayed walk")
	}
	// The replay reproduces every counter; only the recorded selection time
	// (and not the replay's own branch-following cost) is authoritative.
	s.res.SelectionTime = time.Duration(selNS)
	return s, nil
}

// EncodeState serializes a batch's resumable state: its selection counters
// plus every member session's state. The counter block keeps the five slots
// of earlier releases so their snapshots still restore; the three retired
// ones are written as 0. The selection memo is not state.
func (b *Batch) EncodeState() []byte {
	w := &stateWriter{buf: make([]byte, 0, 256*len(b.members))}
	if len(b.members) > 0 && b.members[0].opts.Group != nil {
		w.u8(stateVersionGroup)
	} else {
		w.u8(stateVersion)
	}
	for _, v := range []int64{b.stats.Selections, b.stats.SelectionsShared, 0, 0, 0} {
		w.uvarint(uint64(v))
	}
	w.uvarint(uint64(len(b.members)))
	for _, m := range b.members {
		m.encodeInto(w)
	}
	return w.buf
}

// DecodeBatch reconstructs a Batch from EncodeState output. Like NewBatch it
// mints the single shared strategy instance from f itself, so opts.Strategy
// must be nil, and shares opts.Memo (or a memo of its own) among the
// members.
func DecodeBatch(c *dataset.Collection, f strategy.Factory, opts Options, data []byte) (*Batch, error) {
	if err := checkBatchArgs("DecodeBatch", f, opts); err != nil {
		return nil, err
	}
	r := &stateReader{data: data}
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v != stateVersion && v != stateVersionGroup {
		return nil, corrupt("unknown state version %d", v)
	}
	b := &Batch{}
	// Slots 3–5 held the retired partition and round counters.
	var retired int64
	for _, dst := range []*int64{&b.stats.Selections, &b.stats.SelectionsShared, &retired, &retired, &retired} {
		u, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if u > math.MaxInt64 {
			return nil, corrupt("stat counter overflows")
		}
		*dst = int64(u)
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, corrupt("batch without members")
	}
	b.share(f, &opts)
	b.members = make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		m, err := decodeSessionInto(c, opts, r, v)
		if err != nil {
			return nil, fmt.Errorf("batch member %d: %w", i, err)
		}
		b.members = append(b.members, m)
	}
	if len(r.data) != 0 {
		return nil, corrupt("%d trailing bytes", len(r.data))
	}
	return b, nil
}
