package setdiscovery

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"setdiscovery/internal/discovery"
)

// unsureFirstOracle answers "don't know" to its first question, then defers
// to the inner target oracle — forcing the exclusion path, which must bypass
// the shared memo.
type unsureFirstOracle struct {
	inner Oracle
	first bool
}

func (o *unsureFirstOracle) Answer(entity string) Answer {
	if o.first {
		o.first = false
		return Unknown
	}
	return o.inner.Answer(entity)
}

// firstLieOracle flips its first membership answer, steering the session to
// a wrong candidate whose confirmation the true-target Confirmer then
// rejects — exercising §6 backtracking identically on the shared and
// unshared runs.
type firstLieOracle struct {
	inner Oracle
	lied  bool
}

func (o *firstLieOracle) Answer(entity string) Answer {
	a := o.inner.Answer(entity)
	if !o.lied {
		o.lied = true
		if a == Yes {
			return No
		}
		return Yes
	}
	return a
}

func (o *firstLieOracle) Confirm(setName string) bool {
	if c, ok := o.inner.(Confirmer); ok {
		return c.Confirm(setName)
	}
	return false
}

// discoverAsked runs Discover with a recording oracle and returns the asked
// entity sequence plus the result.
func discoverAsked(t *testing.T, c *Collection, mkOracle func() Oracle, opts ...Option) ([]string, *Result) {
	t.Helper()
	rec := &recordingOracle{inner: mkOracle()}
	res, err := c.Discover(nil, rec, opts...)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	return rec.asked, res
}

// discoverUnshared is discoverAsked's reference: Discover's loop under the
// options engineOptions builds for opts, with the selection memo cleared.
func discoverUnshared(t *testing.T, c *Collection, mkOracle func() Oracle, opts ...Option) ([]string, *Result) {
	t.Helper()
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	o, err := c.engineOptions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.Memo = nil
	rec := &recordingOracle{inner: mkOracle()}
	res, err := discovery.Run(c.c, nil, c.wrapOracle(rec), o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rec.asked, convertResult(res)
}

// TestSharedSelectionMatchesUnshared is the equivalence pin at the public
// layer: across strategies and batch sizes, discovery through the
// collection-wide selection memo asks byte-identical question sequences to
// the same options with the memo cleared — and a second shared run over
// the now-warm memo (the pure hit path) stays identical too.
func TestSharedSelectionMatchesUnshared(t *testing.T) {
	optsets := [][]Option{
		nil,
		{WithStrategy("klple"), WithK(3), WithQ(5)},
		{WithStrategy("klplve"), WithK(3), WithQ(5)},
		{WithStrategy("infogain")},
		{WithStrategy("most-even"), WithBatchSize(3)},
	}
	for _, opts := range optsets {
		shared, err := NewCollection(paperSets())
		if err != nil {
			t.Fatal(err)
		}
		unshared, err := NewCollection(paperSets())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range shared.Names() {
			mk := func(c *Collection) func() Oracle {
				return func() Oracle {
					o, err := c.TargetOracle(name)
					if err != nil {
						t.Fatal(err)
					}
					return o
				}
			}
			wantAsked, want := discoverUnshared(t, unshared, mk(unshared), opts...)
			for run := 0; run < 2; run++ { // run 1 replays against a warm memo
				gotAsked, got := discoverAsked(t, shared, mk(shared), opts...)
				if !reflect.DeepEqual(gotAsked, wantAsked) {
					t.Fatalf("%s run %d: shared asked %v, unshared asked %v", name, run, gotAsked, wantAsked)
				}
				if got.Target != want.Target || got.Questions != want.Questions ||
					got.Interactions != want.Interactions || got.Backtracks != want.Backtracks ||
					!reflect.DeepEqual(got.Candidates, want.Candidates) {
					t.Fatalf("%s run %d: shared result %+v, unshared %+v", name, run, got, want)
				}
			}
		}
		if st := shared.SelectionCacheStats(); st.Hits == 0 || st.Entries == 0 {
			t.Fatalf("shared collection never hit its memo: %+v", st)
		}
		if st := unshared.SelectionCacheStats(); st.Entries != 0 {
			t.Fatalf("the memo-less reference populated the memo: %+v", st)
		}
	}
}

// TestSharedSelectionWithUnknownsAndBacktracking covers the paths that must
// bypass or replay through the memo without changing a single question:
// exclusions (memo bypass) and §6 confirm-and-recover.
func TestSharedSelectionWithUnknownsAndBacktracking(t *testing.T) {
	shared, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range shared.Names() {
		inner := func(c *Collection) Oracle {
			o, err := c.TargetOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
		cases := []struct {
			label string
			mk    func(c *Collection) func() Oracle
			opts  []Option
		}{
			{"unknown-first", func(c *Collection) func() Oracle {
				return func() Oracle { return &unsureFirstOracle{inner: inner(c), first: true} }
			}, nil},
			{"backtracking", func(c *Collection) func() Oracle {
				return func() Oracle { return &firstLieOracle{inner: inner(c)} }
			}, []Option{WithBacktracking()}},
		}
		for _, tc := range cases {
			wantAsked, want := discoverUnshared(t, unshared, tc.mk(unshared), tc.opts...)
			gotAsked, got := discoverAsked(t, shared, tc.mk(shared), tc.opts...)
			if !reflect.DeepEqual(gotAsked, wantAsked) {
				t.Fatalf("%s/%s: shared asked %v, unshared asked %v", name, tc.label, gotAsked, wantAsked)
			}
			if got.Target != want.Target || got.Backtracks != want.Backtracks {
				t.Fatalf("%s/%s: shared result %+v, unshared %+v", name, tc.label, got, want)
			}
		}
	}
	if st := unshared.SelectionCacheStats(); st.Entries != 0 {
		t.Fatalf("the memo-less reference populated the memo: %+v", st)
	}
}

// TestExportImportSelectionCache pins the warm-shard surface: a warmed
// collection's shard imports into a same-content twin, which then serves a
// session with zero computed selections and the reference question sequence.
func TestExportImportSelectionCache(t *testing.T) {
	warm, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	name := warm.Names()[len(warm.Names())-1]
	mk := func(c *Collection) func() Oracle {
		return func() Oracle {
			o, err := c.TargetOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
	}
	wantAsked, _ := discoverAsked(t, warm, mk(warm))
	var shard bytes.Buffer
	if err := warm.ExportSelectionCache(&shard, 0); err != nil {
		t.Fatal(err)
	}

	cold, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	n, err := cold.ImportSelectionCache(bytes.NewReader(shard.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || cold.SelectionCacheStats().Entries != n {
		t.Fatalf("imported %d entries, stats %+v", n, cold.SelectionCacheStats())
	}
	gotAsked, _ := discoverAsked(t, cold, mk(cold))
	if !reflect.DeepEqual(gotAsked, wantAsked) {
		t.Fatalf("warmed twin asked %v, want %v", gotAsked, wantAsked)
	}
	if st := cold.SelectionCacheStats(); st.Computed != 0 {
		t.Fatalf("warmed twin computed %d selections, want 0 (stats %+v)", st.Computed, st)
	}

	// A shard from a different collection is rejected with ErrBadSnapshot.
	foreign, err := NewCollection(map[string][]string{
		"X": {"p", "q"}, "Y": {"q", "r"}, "Z": {"p", "r"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.ImportSelectionCache(bytes.NewReader(shard.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("foreign shard: err %v, want ErrBadSnapshot", err)
	}
	// So is garbage.
	if _, err := cold.ImportSelectionCache(strings.NewReader("not a shard")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage shard: err %v, want ErrBadSnapshot", err)
	}
}

// recordedV2Envelope reads testdata/snapshot-v2-seed-b.bin: the version-2
// envelope an earlier release wrote for a paper-collection session from seed
// {b}, suspended at its first question. Its memo section holds one entry,
// the seed state's selection, and ends with that entry's entity ID (c).
func recordedV2Envelope(tb testing.TB) []byte {
	tb.Helper()
	env, err := os.ReadFile(filepath.Join("testdata", "snapshot-v2-seed-b.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	if env[4] != snapshotVersionDelta {
		tb.Fatalf("recorded envelope is version %d, want %d", env[4], snapshotVersionDelta)
	}
	return env
}

// askedWithin drives s with o and returns its questions, failing the test if
// the session does not finish within limit of them.
func askedWithin(t *testing.T, s *Session, o Oracle, limit int) []string {
	t.Helper()
	var asked []string
	for len(asked) < limit {
		q, done := s.Next()
		if done {
			return asked
		}
		asked = append(asked, q.Entity)
		if err := s.Answer(o.Answer(q.Entity)); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("session did not finish within %d questions: asked %v", limit, asked)
	return nil
}

// TestRestoreIgnoresMemoDelta: a snapshot never changes what the restoring
// collection's selection memo holds. The recorded version-2 envelope resumes
// with its never-suspended twin's questions, and its memo section is never
// read; the same envelope with its memo entry rewritten to name b, which
// every candidate from seed {b} contains, leaves a fresh session from {b}
// asking the honest questions; and a session's snapshot is a version-1
// envelope that restores and snapshots back to the same bytes.
func TestRestoreIgnoresMemoDelta(t *testing.T) {
	env := recordedV2Envelope(t)
	mkOracle := func(c *Collection) Oracle {
		o, err := c.TargetOracle("S5")
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	twin := paperCollection(t)
	fresh, err := twin.NewSession([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	want := askedWithin(t, fresh, mkOracle(twin), 16)
	if len(want) < 2 || want[0] != "c" {
		t.Fatalf("twin asked %v, want a multi-question discovery opening with c", want)
	}

	c := paperCollection(t)
	restored, err := c.RestoreSession(env)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.SelectionCacheStats().Entries; n != 0 {
		t.Errorf("restore left %d memo entries, want 0", n)
	}
	if got := askedWithin(t, restored, mkOracle(c), 16); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded envelope asked %v, twin asked %v", got, want)
	}
	// The memo section is not read, so cutting it short still restores;
	// cutting into the length-prefixed state does not.
	if _, err := c.RestoreSession(env[:len(env)-1]); err != nil {
		t.Errorf("envelope with a cut memo section: %v", err)
	}
	if _, err := c.RestoreSession(env[:len(env)/2]); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("envelope cut inside its state: err %v, want ErrBadSnapshot", err)
	}

	victim := paperCollection(t)
	tampered := bytes.Clone(env)
	tampered[len(tampered)-1] = byte(victim.Internal().Dict().MustLookup("b"))
	if _, err := victim.RestoreSession(tampered); err != nil {
		t.Fatal(err)
	}
	s, err := victim.NewSession([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := askedWithin(t, s, mkOracle(victim), 16); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the tampered import a fresh session asked %v, twin asked %v", got, want)
	}

	// The state carries the session's wall-clock selection time, so the
	// round trip starts from the session's own bytes: the restored session
	// must write them back unchanged, as version 1, at every round.
	s, err = c.NewSession([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	o := mkOracle(c)
	for round := 0; ; round++ {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		twin, err := c.RestoreSession(snap)
		if err != nil {
			t.Fatal(err)
		}
		again, err := twin.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap[4] != snapshotVersion || !bytes.Equal(snap, again) {
			t.Fatalf("round %d: snapshot\n%x\nis not the version-1 envelope its restored twin writes\n%x", round, snap, again)
		}
		q, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(o.Answer(q.Entity)); err != nil {
			t.Fatal(err)
		}
	}
}
