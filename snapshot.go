package setdiscovery

import (
	"encoding/binary"
	"errors"
	"fmt"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
	"setdiscovery/internal/strategy"
)

// Portable sessions: Snapshot serializes a suspended Session or Batch into a
// compact, versioned, self-describing byte string; RestoreSession /
// RestoreBatch reconstruct it — on this process or another one — so the
// discovery resumes exactly where it stopped: same remaining question
// sequence, same counters, same Result as if it had never been suspended
// (test-pinned across strategies, "don't know" answers and backtracking).
//
// A snapshot embeds the configuration the session was created under
// (strategy, lookahead, halting, backtracking), so the restoring side needs
// only the collection — it does not need to know how the session was
// configured. Host-local tuning (WithCacheBound, WithParallelism) is not
// part of a snapshot; pass it to RestoreSession/RestoreBatch instead.
// Restore-side options are applied after the embedded configuration and win
// on conflict.
//
// Envelope layout (everything after the fixed header is uvarint/length-
// prefixed):
//
//	"SDSS" | version (1) | kind | collection content fingerprint (16 bytes)
//	      | configuration (loop and batch kinds) | state payload
//
// Version 2 adds an optional memo-delta section — the selection-memo entries
// the session visited along its own discovery path, so a migrated session
// warms its destination's selection cache (see WithSharedSelection). The
// state payload becomes length-prefixed to delimit it from the delta:
//
//	"SDSS" | version (2) | kind | fingerprint | configuration
//	      | state length | state payload | memo delta
//
// Version 3 marks a group-testing session or batch (WithGroupStrategy): the
// configuration section is followed by a group section — strategy name plus
// the WithGroupConstraint entity-name pairs — and the state payload carries
// the suspended set-valued question. Group sessions bypass the selection
// memo, so a version-3 envelope never carries a memo delta:
//
//	"SDSS" | version (3) | kind | fingerprint | configuration
//	      | group configuration | state payload
//
// Writers emit the lowest sufficient version — 1 whenever there is no delta
// and no group configuration to carry — so snapshots of entity sessions stay
// byte-identical to earlier releases; decoders accept all three versions.
// The delta is advisory performance state: a restoring side validates and
// imports it into the collection's memo, but the restored session's
// behaviour never depends on it.
//
// The collection fingerprint guards against restoring over a different
// collection, where set indexes and entity IDs would silently mean something
// else; tree-session snapshots are additionally replay-verified against the
// tree they are restored onto. Snapshots are not authenticated: treat them
// like any other client-supplied state and restore only over the collection
// they were exported from.

// snapshotMagic identifies a setdiscovery snapshot; the trailing byte is the
// envelope version.
const snapshotMagic = "SDSS"

// snapshotVersion is the base envelope version; snapshotVersionDelta marks an
// envelope whose state payload is length-prefixed and followed by a
// selection-memo delta; snapshotVersionGroup marks a group-testing envelope
// whose configuration is followed by a group section. Decoders reject
// versions they do not know rather than guessing at layouts.
const (
	snapshotVersion      = 1
	snapshotVersionDelta = 2
	snapshotVersionGroup = 3
)

// SnapshotKind discriminates what a snapshot contains.
type SnapshotKind byte

const (
	// SnapshotSession is a strategy-loop Session (Collection.NewSession).
	SnapshotSession SnapshotKind = 1
	// SnapshotTreeSession is a prebuilt-tree walk (Tree.NewSession).
	SnapshotTreeSession SnapshotKind = 2
	// SnapshotBatch is a Batch of sessions (Collection.NewBatch).
	SnapshotBatch SnapshotKind = 3
)

// String names the kind for diagnostics and wire payloads.
func (k SnapshotKind) String() string {
	switch k {
	case SnapshotSession:
		return "session"
	case SnapshotTreeSession:
		return "tree-session"
	case SnapshotBatch:
		return "batch"
	default:
		return fmt.Sprintf("SnapshotKind(%d)", byte(k))
	}
}

// ErrBadSnapshot is wrapped by every snapshot decoding failure: foreign or
// corrupted bytes, an unknown version, or state that does not belong to the
// restoring collection or tree.
var ErrBadSnapshot = errors.New("setdiscovery: invalid snapshot")

// Snapshot serializes the session's suspended state. It is non-destructive
// — the session continues unaffected — so state can be exported at every
// suspension point (a serving layer does it per round-trip). Restore with
// Collection.RestoreSession, or Tree.RestoreSession for tree-walk sessions.
func (s *Session) Snapshot() ([]byte, error) {
	switch core := s.s.(type) {
	case *discovery.Session:
		// Group sessions need the version-3 envelope: restoring one requires
		// the group section to mint the right strategy. They bypass the
		// selection memo, so there is never a delta to carry alongside.
		if s.cfg.groupStrategy != "" {
			w := newEnvelopeVersion(snapshotVersionGroup, SnapshotSession, s.c.c.ContentFingerprint())
			w.config(s.cfg)
			w.groupConfig(s.cfg)
			return append(w.buf, core.EncodeState()...), nil
		}
		// Sessions that visited shared-selection states carry those memo
		// entries along as a version-2 delta section; others emit the
		// byte-identical version-1 envelope of earlier releases.
		delta, n := core.AppendMemoDelta(nil)
		if n == 0 {
			w := newEnvelope(SnapshotSession, s.c.c.ContentFingerprint())
			w.config(s.cfg)
			return append(w.buf, core.EncodeState()...), nil
		}
		w := newEnvelopeVersion(snapshotVersionDelta, SnapshotSession, s.c.c.ContentFingerprint())
		w.config(s.cfg)
		state := core.EncodeState()
		w.buf = binary.AppendUvarint(w.buf, uint64(len(state)))
		w.buf = append(w.buf, state...)
		return append(w.buf, delta...), nil
	case *discovery.TreeSession:
		w := newEnvelope(SnapshotTreeSession, s.c.c.ContentFingerprint())
		return append(w.buf, core.EncodeState()...), nil
	default:
		return nil, fmt.Errorf("setdiscovery: unsupported session core %T", s.s)
	}
}

// Snapshot serializes the whole batch — every member's suspended state plus
// its selection counters. Restore with Collection.RestoreBatch.
func (b *Batch) Snapshot() ([]byte, error) {
	version := byte(snapshotVersion)
	if b.cfg.groupStrategy != "" {
		version = snapshotVersionGroup
	}
	w := newEnvelopeVersion(version, SnapshotBatch, b.c.c.ContentFingerprint())
	w.config(b.cfg)
	if b.cfg.groupStrategy != "" {
		w.groupConfig(b.cfg)
	}
	return append(w.buf, b.b.EncodeState()...), nil
}

// RestoreSession reconstructs a session from Snapshot output, bound to this
// collection — which must be the one the snapshot was exported from (guarded
// by a content fingerprint). opts are applied on top of the snapshot's
// embedded configuration; use them for host-local tuning such as
// WithCacheBound. Tree-session snapshots must be restored with
// Tree.RestoreSession instead, batches with RestoreBatch.
func (c *Collection) RestoreSession(data []byte, opts ...Option) (*Session, error) {
	cfg, payload, delta, err := c.openEnvelope(data, SnapshotSession, opts)
	if err != nil {
		return nil, err
	}
	o, err := c.engineOptions(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	s, err := discovery.DecodeSession(c.c, o, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	// The delta is applied after the state decoded: a snapshot that fails to
	// restore must not leave half its cache entries behind.
	if err := c.applyMemoDelta(cfg, delta); err != nil {
		return nil, err
	}
	return &Session{c: c, s: s, cfg: cfg}, nil
}

// RestoreSession reconstructs a tree-walk session from Snapshot output over
// this tree. The snapshot's path is replayed and verified question by
// question, so state exported from a structurally different tree (or a
// different collection) is rejected rather than silently walking to a wrong
// leaf.
func (t *Tree) RestoreSession(data []byte) (*Session, error) {
	cfg, payload, delta, err := t.c.openEnvelope(data, SnapshotTreeSession, nil)
	if err != nil {
		return nil, err
	}
	s, err := discovery.DecodeTreeSession(t.c.c, t.t, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if err := t.c.applyMemoDelta(cfg, delta); err != nil {
		return nil, err
	}
	return &Session{c: t.c, s: s, tree: t}, nil
}

// RestoreBatch reconstructs a batch from Batch.Snapshot output, bound to
// this collection. Members resume sharing one strategy instance and the
// selection memo NewBatch would give them, and keep amortising exactly as
// before the suspension.
func (c *Collection) RestoreBatch(data []byte, opts ...Option) (*Batch, error) {
	cfg, payload, delta, err := c.openEnvelope(data, SnapshotBatch, opts)
	if err != nil {
		return nil, err
	}
	o := discoveryOptions(cfg, nil)
	var f strategy.Factory
	if cfg.groupStrategy != "" {
		gf, err := c.groupFactory(cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		o.Group = gf.New()
	} else {
		if f, err = c.factory(cfg); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		c.attachMemo(cfg, &o)
	}
	b, err := discovery.DecodeBatch(c.c, f, o, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if err := c.applyMemoDelta(cfg, delta); err != nil {
		return nil, err
	}
	return &Batch{c: c, b: b, cfg: cfg}, nil
}

// SnapshotInfo describes a snapshot without restoring it — what kind of
// resource it holds — so a serving layer can route the bytes to the right
// restore call.
type SnapshotInfo struct {
	Kind SnapshotKind
}

// ReadSnapshotInfo peeks at a snapshot's envelope header.
func ReadSnapshotInfo(data []byte) (SnapshotInfo, error) {
	_, kind, _, _, err := parseHeader(data)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Kind: kind}, nil
}

// discoveryOptions maps the behaviour-relevant half of a config to engine
// options (the other half — strategy selection — travels through the
// factory; strat stays nil for batches, which mint their own shared
// instance).
func discoveryOptions(cfg config, strat strategy.Strategy) discovery.Options {
	return discovery.Options{
		Strategy:      strat,
		MaxQuestions:  cfg.maxQuestions,
		BatchSize:     cfg.batchSize,
		Backtrack:     cfg.backtrack,
		ConfirmTarget: cfg.confirm,
	}
}

// envelopeWriter builds the snapshot header + configuration section.
type envelopeWriter struct {
	buf []byte
}

func newEnvelope(kind SnapshotKind, fp dataset.Fingerprint) *envelopeWriter {
	return newEnvelopeVersion(snapshotVersion, kind, fp)
}

func newEnvelopeVersion(version byte, kind SnapshotKind, fp dataset.Fingerprint) *envelopeWriter {
	w := &envelopeWriter{buf: make([]byte, 0, 64)}
	w.buf = append(w.buf, snapshotMagic...)
	w.buf = append(w.buf, version, byte(kind))
	w.buf = binary.BigEndian.AppendUint64(w.buf, fp.Hi)
	w.buf = binary.BigEndian.AppendUint64(w.buf, fp.Lo)
	return w
}

// config appends the behaviour-relevant configuration: everything that
// decides which questions get asked or when the session halts. Host-local
// tuning (cache bound, build parallelism) is deliberately absent.
func (w *envelopeWriter) config(cfg config) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(cfg.strategyName)))
	w.buf = append(w.buf, cfg.strategyName...)
	var metric byte
	if cfg.metric == Height {
		metric = 1
	}
	w.buf = append(w.buf, metric)
	for _, v := range []int{cfg.k, cfg.q, cfg.maxQuestions, cfg.batchSize} {
		w.buf = binary.AppendUvarint(w.buf, uint64(v))
	}
	var flags byte
	if cfg.backtrack {
		flags |= 1
	}
	if cfg.confirm {
		flags |= 2
	}
	w.buf = append(w.buf, flags)
}

// groupConfig appends the version-3 group section: the group strategy's name
// and the constraint entity-name pairs it was configured with. Constraint
// names (not IDs) travel so the section stays meaningful to a human and the
// restoring side re-resolves them against its own dictionary.
func (w *envelopeWriter) groupConfig(cfg config) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(cfg.groupStrategy)))
	w.buf = append(w.buf, cfg.groupStrategy...)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(cfg.groupConstraints)))
	for _, pair := range cfg.groupConstraints {
		for _, name := range pair {
			w.buf = binary.AppendUvarint(w.buf, uint64(len(name)))
			w.buf = append(w.buf, name...)
		}
	}
}

func badSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// parseHeader validates magic/version and returns the version, kind,
// fingerprint and the bytes after the fixed header.
func parseHeader(data []byte) (byte, SnapshotKind, dataset.Fingerprint, []byte, error) {
	const headerLen = len(snapshotMagic) + 2 + 16
	if len(data) < headerLen {
		return 0, 0, dataset.Fingerprint{}, nil, badSnapshot("truncated header")
	}
	if string(data[:4]) != snapshotMagic {
		return 0, 0, dataset.Fingerprint{}, nil, badSnapshot("bad magic %q", data[:4])
	}
	version := data[4]
	if version != snapshotVersion && version != snapshotVersionDelta && version != snapshotVersionGroup {
		return 0, 0, dataset.Fingerprint{}, nil, badSnapshot("unknown snapshot version %d", version)
	}
	kind := SnapshotKind(data[5])
	if kind != SnapshotSession && kind != SnapshotTreeSession && kind != SnapshotBatch {
		return 0, 0, dataset.Fingerprint{}, nil, badSnapshot("unknown snapshot kind %d", data[5])
	}
	fp := dataset.Fingerprint{
		Hi: binary.BigEndian.Uint64(data[6:14]),
		Lo: binary.BigEndian.Uint64(data[14:22]),
	}
	return version, kind, fp, data[headerLen:], nil
}

// openEnvelope parses and validates the header against this collection and
// the expected kind, decodes the embedded configuration (loop and batch
// kinds) and applies the caller's restore-side options on top. It returns the
// final configuration, the state payload and — for version-2 envelopes — the
// memo-delta section (nil for version 1).
func (c *Collection) openEnvelope(data []byte, want SnapshotKind, opts []Option) (config, []byte, []byte, error) {
	cfg := defaultConfig()
	version, kind, fp, rest, err := parseHeader(data)
	if err != nil {
		return cfg, nil, nil, err
	}
	if kind != want {
		hint := ""
		switch kind {
		case SnapshotTreeSession:
			hint = " (restore it with Tree.RestoreSession)"
		case SnapshotSession:
			hint = " (restore it with Collection.RestoreSession)"
		case SnapshotBatch:
			hint = " (restore it with Collection.RestoreBatch)"
		}
		return cfg, nil, nil, badSnapshot("snapshot holds a %s, not a %s%s", kind, want, hint)
	}
	if got := c.c.ContentFingerprint(); got != fp {
		return cfg, nil, nil, badSnapshot("snapshot was exported from a different collection")
	}
	if kind != SnapshotTreeSession {
		if rest, err = readConfig(&cfg, rest); err != nil {
			return cfg, nil, nil, err
		}
		if version == snapshotVersionGroup {
			if rest, err = readGroupConfig(&cfg, rest); err != nil {
				return cfg, nil, nil, err
			}
		}
	} else if version == snapshotVersionGroup {
		return cfg, nil, nil, badSnapshot("tree sessions have no group mode")
	}
	for _, o := range opts {
		o(&cfg)
	}
	var delta []byte
	if version == snapshotVersionDelta {
		stateLen, n := binary.Uvarint(rest)
		if n <= 0 || stateLen > uint64(len(rest)-n) {
			return cfg, nil, nil, badSnapshot("truncated state length")
		}
		rest, delta = rest[n:n+int(stateLen)], rest[n+int(stateLen):]
	}
	return cfg, rest, delta, nil
}

// applyMemoDelta validates a snapshot's memo-delta section and imports it
// into the collection's selection memo. With shared selection disabled on the
// restoring side the entries are still fully validated — a corrupt delta must
// fail the restore either way — but land in a throwaway memo instead.
func (c *Collection) applyMemoDelta(cfg config, delta []byte) error {
	if delta == nil {
		return nil
	}
	m := discovery.NewSelectionMemo(1)
	if cfg.sharedSelection {
		m = c.selectionMemo(cfg.cacheBound)
	}
	if _, err := discovery.DecodeMemoDelta(c.c, m, delta); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return nil
}

// readConfig decodes the configuration section into cfg, returning the
// remaining payload.
func readConfig(cfg *config, data []byte) ([]byte, error) {
	nameLen, n := binary.Uvarint(data)
	if n <= 0 || nameLen > uint64(len(data)-n) {
		return nil, badSnapshot("truncated configuration")
	}
	data = data[n:]
	cfg.strategyName = string(data[:nameLen])
	data = data[nameLen:]
	if len(data) == 0 {
		return nil, badSnapshot("truncated configuration")
	}
	switch data[0] {
	case 0:
		cfg.metric = AverageDepth
	case 1:
		cfg.metric = Height
	default:
		return nil, badSnapshot("unknown metric %d", data[0])
	}
	data = data[1:]
	// Snapshot input is untrusted: parameters feed straight into strategy
	// construction (which rejects k < 1 by panicking — a programmer error on
	// the normal path) and into lookahead whose cost grows with k, so both
	// floor and ceiling are enforced here.
	for _, f := range []struct {
		dst      *int
		min, max int
	}{
		{&cfg.k, 1, 64},
		{&cfg.q, 1, 1 << 20},
		{&cfg.maxQuestions, 0, 1 << 20},
		{&cfg.batchSize, 0, 1 << 20},
	} {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, badSnapshot("truncated configuration")
		}
		if v < uint64(f.min) || v > uint64(f.max) {
			return nil, badSnapshot("configuration value %d out of range [%d, %d]", v, f.min, f.max)
		}
		*f.dst = int(v)
		data = data[n:]
	}
	if len(data) == 0 {
		return nil, badSnapshot("truncated configuration")
	}
	if data[0] > 3 {
		return nil, badSnapshot("unknown configuration flags %#x", data[0])
	}
	cfg.backtrack = data[0]&1 != 0
	cfg.confirm = data[0]&2 != 0
	return data[1:], nil
}

// readGroupConfig decodes the version-3 group section. Strategy and entity
// names are re-validated downstream (the group factory rejects unknown
// strategies and constraint entities absent from the collection); here only
// the framing and untrusted-input bounds are checked.
func readGroupConfig(cfg *config, data []byte) ([]byte, error) {
	readString := func(what string, max uint64) (string, error) {
		n, sz := binary.Uvarint(data)
		if sz <= 0 || n > max || n > uint64(len(data)-sz) {
			return "", badSnapshot("truncated group %s", what)
		}
		s := string(data[sz : sz+int(n)])
		data = data[sz+int(n):]
		return s, nil
	}
	name, err := readString("strategy", 64)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, badSnapshot("empty group strategy in a group envelope")
	}
	cfg.groupStrategy = name
	count, sz := binary.Uvarint(data)
	if sz <= 0 || count > 1<<16 {
		return nil, badSnapshot("truncated group constraints")
	}
	data = data[sz:]
	cfg.groupConstraints = nil
	for i := uint64(0); i < count; i++ {
		ifName, err := readString("constraint", 1<<10)
		if err != nil {
			return nil, err
		}
		thenName, err := readString("constraint", 1<<10)
		if err != nil {
			return nil, err
		}
		cfg.groupConstraints = append(cfg.groupConstraints, [2]string{ifName, thenName})
	}
	return data, nil
}
