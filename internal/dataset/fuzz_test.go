package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText checks the text parser never panics, lays out what it
// accepts as build does, and that WriteText round-trips it to a collection
// with the same ContentFingerprint: the same sets, names and entity IDs in
// the same order.
func FuzzReadText(f *testing.F) {
	f.Add("A\tx\ty\nB\tz\n")
	f.Add("# comment\nname\telem\n")
	f.Add("esc\\tape\td\\nata\n")
	f.Add("")
	f.Add("lonely\n")
	f.Add("\\#000\t000000")   // a name that starts with '#'
	f.Add("A\tx\r\r\nB\tx\n") // an element that ends in a carriage return
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		checkLayout(t, c)
		var buf bytes.Buffer
		if err := c.WriteText(&buf); err != nil {
			t.Fatalf("WriteText of accepted input failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if back.ContentFingerprint() != c.ContentFingerprint() {
			t.Fatalf("round trip changed the collection: %d sets, %d after", c.Len(), back.Len())
		}
	})
}

// FuzzReadBinary checks the binary parser never panics or over-allocates on
// corrupt input, lays out what it accepts as build does, and round-trips
// it to a collection with the same ContentFingerprint and universe.
func FuzzReadBinary(f *testing.F) {
	orig, err := FromIDSets([]string{"a", "b"}, [][]Entity{{0, 2}, {1}}, 3, false)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("SDC1"))
	f.Add([]byte{})
	f.Add([]byte("XXXXXXXX"))
	f.Fuzz(func(t *testing.T, input []byte) {
		c, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		checkLayout(t, c)
		var out bytes.Buffer
		if err := c.WriteBinary(&out); err != nil {
			t.Fatalf("WriteBinary of accepted input failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if back.ContentFingerprint() != c.ContentFingerprint() || back.NumEntities() != c.NumEntities() {
			t.Fatal("round trip changed the collection")
		}
	})
}
