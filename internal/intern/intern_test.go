package intern

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	d := NewDict()
	words := []string{"a", "b", "c", "d"}
	for i, w := range words {
		if got := d.Intern(w); got != uint32(i) {
			t.Errorf("Intern(%q) = %d, want %d", w, got, i)
		}
	}
	if d.Len() != len(words) {
		t.Errorf("Len() = %d, want %d", d.Len(), len(words))
	}
}

func TestInternIsIdempotent(t *testing.T) {
	d := NewDict()
	first := d.Intern("x")
	d.Intern("y")
	if again := d.Intern("x"); again != first {
		t.Errorf("second Intern(\"x\") = %d, want %d", again, first)
	}
	if d.Len() != 2 {
		t.Errorf("Len() = %d, want 2", d.Len())
	}
}

// TestInternBytes: a byte-slice intern agrees with Intern, allocates
// nothing for a known string, and copies a new one, so rewriting the
// caller's buffer changes no interned string.
func TestInternBytes(t *testing.T) {
	d := NewDict()
	d.Intern("known")
	buf := []byte("known")
	if id := d.InternBytes(buf); id != 0 {
		t.Fatalf("InternBytes(known) = %d, want 0", id)
	}
	if n := testing.AllocsPerRun(100, func() { d.InternBytes(buf) }); n != 0 {
		t.Fatalf("InternBytes of a known string allocated %v times", n)
	}
	buf = []byte("fresh")
	if id := d.InternBytes(buf); id != 1 {
		t.Fatalf("InternBytes(fresh) = %d, want 1", id)
	}
	copy(buf, "XXXXX")
	if got := d.String(1); got != "fresh" {
		t.Fatalf("String(1) = %q after the caller's buffer changed, want \"fresh\"", got)
	}
	if id, ok := d.Lookup("fresh"); !ok || id != 1 {
		t.Fatalf("Lookup(fresh) = %d,%v want 1,true", id, ok)
	}
}

func TestLookup(t *testing.T) {
	d := NewDict()
	d.Intern("present")
	if id, ok := d.Lookup("present"); !ok || id != 0 {
		t.Errorf("Lookup(present) = %d,%v want 0,true", id, ok)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup(absent) reported present")
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("w%03d", i)
		id := d.Intern(s)
		if back := d.String(id); back != s {
			t.Fatalf("String(%d) = %q, want %q", id, back, s)
		}
	}
}

func TestStringOK(t *testing.T) {
	d := NewDict()
	d.Intern("only")
	if s, ok := d.StringOK(0); !ok || s != "only" {
		t.Errorf("StringOK(0) = %q,%v", s, ok)
	}
	if _, ok := d.StringOK(1); ok {
		t.Error("StringOK(1) reported ok for unassigned ID")
	}
}

func TestInternAll(t *testing.T) {
	d := NewDict()
	ids := d.InternAll([]string{"a", "b", "a", "c"})
	want := []uint32{0, 1, 0, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %d, want %d", i, ids[i], want[i])
		}
	}
}

func TestMustLookupPanics(t *testing.T) {
	d := NewDict()
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing string did not panic")
		}
	}()
	d.MustLookup("nope")
}

func TestEmptyStringIsValid(t *testing.T) {
	d := NewDict()
	id := d.Intern("")
	if got := d.String(id); got != "" {
		t.Errorf("String(%d) = %q, want empty", id, got)
	}
}

// Property: for any sequence of strings, interning then resolving every ID
// returns the original string, and Len equals the number of distinct inputs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(ss []string) bool {
		d := NewDict()
		distinct := make(map[string]bool)
		for _, s := range ss {
			id := d.Intern(s)
			if d.String(id) != s {
				return false
			}
			distinct[s] = true
		}
		return d.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IDs are stable — interning the same string twice, in any
// surrounding sequence, yields the same ID.
func TestQuickStableIDs(t *testing.T) {
	f := func(prefix []string, s string, suffix []string) bool {
		d := NewDict()
		for _, p := range prefix {
			d.Intern(p)
		}
		first := d.Intern(s)
		for _, p := range suffix {
			d.Intern(p)
		}
		return d.Intern(s) == first
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
