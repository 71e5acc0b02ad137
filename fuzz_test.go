package setdiscovery

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"setdiscovery/internal/wireproto"
)

// Fuzz coverage for the two public decoders that parse untrusted input: the
// binary decision-tree format behind Collection.LoadTree (persisted trees
// travel through files and object stores) and the session snapshot format
// behind RestoreSession/RestoreBatch (snapshots travel through HTTP state
// export/import and router migration). Both must reject garbage with an
// error — never panic — and anything they accept must behave like a valid
// resource.

// fuzzCollection builds the paper collection once per fuzz target.
func fuzzCollection(f *testing.F) *Collection {
	f.Helper()
	c, err := NewCollection(paperSets())
	if err != nil {
		f.Fatal(err)
	}
	return c
}

// driveAccepted pumps a session to completion with a truthful oracle,
// bounding the number of rounds so a hypothetical non-terminating decoded
// state fails the fuzz instead of hanging it.
func driveAccepted(t *testing.T, c *Collection, s *Session) {
	o, err := c.TargetOracle(c.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		q, done := s.Next()
		if done {
			return
		}
		a := No
		if !q.IsConfirm() {
			a = o.Answer(q.Entity)
		}
		if err := s.Answer(a); err != nil {
			t.Fatalf("restored session rejected its own question: %v", err)
		}
	}
	t.Fatal("restored session did not terminate within 10000 answers")
}

// FuzzLoadTree fuzzes the binary tree decoder at the public entry point: it
// must never panic, and DiscoverWithTree must walk an accepted tree to a
// leaf for every target, to the target's own leaf when the tree holds one.
func FuzzLoadTree(f *testing.F) {
	c := fuzzCollection(f)
	tr, err := c.BuildTree()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("SDT1"))
	f.Add([]byte("SDT1\x07\x01\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		loaded, err := c.LoadTree(bytes.NewReader(input))
		if err != nil {
			return
		}
		for _, name := range c.Names() {
			o, err := c.TargetOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.DiscoverWithTree(loaded, o)
			if err != nil {
				t.Fatalf("walking an accepted tree for %s: %v", name, err)
			}
			depth := loaded.QuestionsFor(name)
			if res.Target == "" || depth >= 0 && (res.Target != name || res.Questions != depth) {
				t.Fatalf("an accepted tree walked %s to %q in %d questions (its leaf depth %d)",
					name, res.Target, res.Questions, depth)
			}
		}
	})
}

// FuzzRestoreSnapshot fuzzes the snapshot decoders with one corpus across
// all three kinds (the envelope discriminates): no panics, and an accepted
// session must drive to completion.
func FuzzRestoreSnapshot(f *testing.F) {
	c := fuzzCollection(f)
	tr, err := c.BuildTree()
	if err != nil {
		f.Fatal(err)
	}
	s, err := c.NewSession([]string{"b"}, WithBacktracking())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Answer(Yes); err != nil {
		f.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	b, err := c.NewBatch([]Seed{{Initial: []string{"b"}}, {}}, WithBatchSize(2))
	if err != nil {
		f.Fatal(err)
	}
	batchSnap, err := b.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	treeSnap, err := tr.NewSession().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	// snap above is a version-1 envelope; seed the recorded version-2
	// envelope and the tree walks (kind 2) of earlier releases too, so the
	// fuzzer mutates every layout the decoders read.
	f.Add(snap)
	f.Add(recordedV2Envelope(f))
	f.Add(batchSnap)
	f.Add(treeSnap)
	f.Add([]byte("SDSS"))
	f.Add([]byte{})
	for _, name := range []string{"snapshot-tree-walk-s5.bin", "snapshot-tree-walk-unknown.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if restored, err := c.RestoreSession(input); err == nil {
			driveAccepted(t, c, restored)
		}
		if restored, err := tr.RestoreSession(input); err == nil {
			driveAccepted(t, c, restored)
		}
		if restored, err := c.RestoreBatch(input); err == nil {
			for i := 0; i < restored.Len(); i++ {
				if _, err := restored.Result(i); err != nil {
					// Terminal member outcomes are legal snapshot content.
					continue
				}
			}
		}
	})
}

// FuzzSelectionCacheShard fuzzes the warm-shard decoder behind
// ImportSelectionCache (shards travel through /v1/cache/shard and the
// -cache-persist files): no panics, malformed input, repeated keys and
// foreign fingerprints are rejected with ErrBadSnapshot and leave the memo
// empty, an accepted shard's reported count is what the memo holds, and
// anything accepted survives an export/import round trip — the decoder and
// encoder stay a closed pair.
func FuzzSelectionCacheShard(f *testing.F) {
	seedC := fuzzCollection(f)
	for _, name := range seedC.Names() {
		o, err := seedC.TargetOracle(name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := seedC.Discover(nil, o); err != nil {
			f.Fatal(err)
		}
	}
	var warm bytes.Buffer
	if err := seedC.ExportSelectionCache(&warm, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(warm.Bytes())
	f.Add(warm.Bytes()[:len(warm.Bytes())/2])
	f.Add([]byte("SDCS"))
	f.Add([]byte{})
	// One entry twice under an entry count of 2: a repeated key, which the
	// encoder never writes. The header is magic, version and fingerprint.
	var one bytes.Buffer
	if err := seedC.ExportSelectionCache(&one, 1); err != nil {
		f.Fatal(err)
	}
	const header = 4 + 1 + 16
	entry := one.Bytes()[header+1:]
	f.Add(append(append(append(bytes.Clone(one.Bytes()[:header]), 2), entry...), entry...))
	f.Fuzz(func(t *testing.T, input []byte) {
		c := fuzzShardCollection(t)
		n, err := c.ImportSelectionCache(bytes.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("rejection not wrapped in ErrBadSnapshot: %v", err)
			}
			if got := c.SelectionCacheStats().Entries; got != 0 {
				t.Fatalf("rejected shard left %d entries in the memo", got)
			}
			return
		}
		if got := c.SelectionCacheStats().Entries; got != n {
			t.Fatalf("import reported %d entries, memo holds %d", n, got)
		}
		var out bytes.Buffer
		if err := c.ExportSelectionCache(&out, 0); err != nil {
			t.Fatalf("re-exporting accepted shard: %v", err)
		}
		twin := fuzzShardCollection(t)
		if m, err := twin.ImportSelectionCache(bytes.NewReader(out.Bytes())); err != nil || m != n {
			t.Fatalf("re-export round trip: imported %d of %d, err %v", m, n, err)
		}
	})
}

// FuzzGroupQuestionState fuzzes the two decoders that carry set-valued
// question state: the snapshot envelope (RestoreSession/RestoreBatch, bumped
// to version 3 for group sessions) and the wire frame decoder (group state
// travels under flag-gated appends). The corpus seeds every envelope
// generation — version 1, the recorded version-2 envelope of an earlier
// release, version-3 halving mid-flight and additive-with-constraints — plus
// group-flagged Create/Question/Answer/BatchAnswer frames. Contracts:
// rejections wrap ErrBadSnapshot / wireproto.ErrBadFrame (never a panic or
// naked error), an accepted session re-snapshots byte-identically and drives
// to completion, and an accepted frame survives decode → encode → decode
// deep-equal.
func FuzzGroupQuestionState(f *testing.F) {
	c := fuzzCollection(f)
	o, err := c.TargetOracle(c.Names()[0])
	if err != nil {
		f.Fatal(err)
	}
	g := o.(GroupOracle)

	// Version-3 group envelopes: halving suspended mid-flight, additive at
	// round zero with a constraint recorded.
	halving, err := c.NewSession(nil, WithGroupStrategy("halving"))
	if err != nil {
		f.Fatal(err)
	}
	if q, done := halving.Next(); !done {
		if err := halving.Answer(g.AnswerSubset(q.Subset, q.Semantics)); err != nil {
			f.Fatal(err)
		}
	}
	halvingSnap, err := halving.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	additive, err := c.NewSession(nil, WithGroupStrategy("additive"), WithGroupConstraint("a", "b"))
	if err != nil {
		f.Fatal(err)
	}
	additiveSnap, err := additive.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	groupBatch, err := c.NewBatch([]Seed{{}, {}}, WithGroupStrategy("halving"))
	if err != nil {
		f.Fatal(err)
	}
	groupBatchSnap, err := groupBatch.Snapshot()
	if err != nil {
		f.Fatal(err)
	}

	// Pre-bump envelopes: entity sessions must keep decoding unchanged
	// after the version-3 bump.
	v1, err := c.NewSession(nil)
	if err != nil {
		f.Fatal(err)
	}
	v1Snap, err := v1.Snapshot()
	if err != nil {
		f.Fatal(err)
	}

	// Group-flagged wire frames alongside the snapshots: one corpus, both
	// decoders probed per input.
	for _, m := range []wireproto.Message{
		&wireproto.Create{Channel: 1, Collection: "paper", Config: wireproto.SessionConfig{
			GroupStrategy:    "additive",
			GroupConstraints: [][2]string{{"a", "b"}},
		}},
		&wireproto.Question{Channel: 1, Members: []wireproto.MemberQuestion{
			{Subset: []string{"a", "b"}, Semantics: "intersects"},
		}},
		&wireproto.Answer{Channel: 1, Answer: "yes", Subset: []string{"a"}, Semantics: "subset-of"},
		&wireproto.BatchAnswer{Channel: 1, Answers: []wireproto.MemberAnswer{
			{Member: 0, Answer: "no", Subset: []string{"b"}, Semantics: "intersects"},
			{Member: 1, Answer: "yes"},
		}},
	} {
		buf, err := wireproto.AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(halvingSnap)
	f.Add(additiveSnap)
	f.Add(groupBatchSnap)
	f.Add(v1Snap)
	f.Add(recordedV2Envelope(f))
	f.Add([]byte("SDSS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, input []byte) {
		if restored, err := c.RestoreSession(input); err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("session rejection not wrapped in ErrBadSnapshot: %v", err)
			}
		} else {
			// An accepted session's own snapshot must be a byte-stable fixed
			// point: restore → snapshot → restore → snapshot is identical.
			again, err := restored.Snapshot()
			if err != nil {
				t.Fatalf("restored session failed to re-snapshot: %v", err)
			}
			twin, err := c.RestoreSession(again)
			if err != nil {
				t.Fatalf("re-snapshot rejected: %v", err)
			}
			stable, err := twin.Snapshot()
			if err != nil {
				t.Fatalf("re-restored session failed to snapshot: %v", err)
			}
			if !bytes.Equal(again, stable) {
				t.Fatalf("snapshot not byte-stable:\nfirst  %x\nsecond %x", again, stable)
			}
			driveGroupAccepted(t, c, restored)
		}
		if _, err := c.RestoreBatch(input); err != nil && !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("batch rejection not wrapped in ErrBadSnapshot: %v", err)
		}
		m, err := wireproto.ReadFrame(bytes.NewReader(input))
		if err != nil {
			if errors.Is(err, io.EOF) && len(input) == 0 {
				return
			}
			if !errors.Is(err, wireproto.ErrBadFrame) {
				t.Fatalf("frame rejection does not wrap ErrBadFrame: %v", err)
			}
			return
		}
		buf, err := wireproto.AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v (%#v)", err, m)
		}
		m2, err := wireproto.ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v (%#v)", err, m)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("lossy frame round trip:\nfirst  %#v\nsecond %#v", m, m2)
		}
	})
}

// driveGroupAccepted pumps a fuzz-accepted session to completion answering
// every question kind — subset, confirm, entity — with the bounded-round
// guard of driveAccepted.
func driveGroupAccepted(t *testing.T, c *Collection, s *Session) {
	o, err := c.TargetOracle(c.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	g := o.(GroupOracle)
	for i := 0; i < 10000; i++ {
		q, done := s.Next()
		if done {
			return
		}
		var a Answer
		switch {
		case q.IsSubset():
			a = g.AnswerSubset(q.Subset, q.Semantics)
		case q.IsConfirm():
			a = No
		default:
			a = o.Answer(q.Entity)
		}
		if err := s.Answer(a); err != nil {
			t.Fatalf("restored session rejected its own question: %v", err)
		}
	}
	t.Fatal("restored session did not terminate within 10000 answers")
}

// fuzzShardCollection builds a fresh paper collection inside a fuzz
// iteration (each import must start from an empty memo).
func fuzzShardCollection(t *testing.T) *Collection {
	t.Helper()
	c, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	return c
}
