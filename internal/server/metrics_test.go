package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// parseLabel reads the value of label name from a rendered label list, the
// way a Prometheus scraper does: the value is double-quoted, and the only
// escapes are \\, \" and \n.
func parseLabel(labels, name string) (string, error) {
	prefix := name + `="`
	i := strings.Index(labels, prefix)
	if i < 0 || (i > 0 && labels[i-1] != ',') {
		return "", fmt.Errorf("no label %s in %s", name, labels)
	}
	var b strings.Builder
	rest := labels[i+len(prefix):]
	for j := 0; j < len(rest); j++ {
		switch c := rest[j]; c {
		case '"':
			if tail := rest[j+1:]; tail != "" && tail[0] != ',' {
				return "", fmt.Errorf("label %s: %q after the closing quote", name, tail)
			}
			return b.String(), nil
		case '\\':
			if j++; j == len(rest) {
				return "", fmt.Errorf("label %s: dangling backslash", name)
			}
			switch rest[j] {
			case '\\', '"':
				b.WriteByte(rest[j])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", fmt.Errorf(`label %s: invalid escape \%c`, name, rest[j])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", fmt.Errorf("label %s: unterminated value", name)
}

// TestLabel pins the label renderer: exactly the exposition format's three
// escapes, applied once, and plain values rendered as before.
func TestLabel(t *testing.T) {
	for _, tc := range []struct{ name, value, want string }{
		{"collection", "paper", `collection="paper"`},
		{"backend", `a"b`, `backend="a\"b"`},
		{"collection", `we"ird\name`, `collection="we\"ird\\name"`},
		{"collection", "two\nlines", `collection="two\nlines"`},
		{"collection", "tab\tand ünïcode", "collection=\"tab\tand ünïcode\""},
		{"collection", "", `collection=""`},
	} {
		got := Label(tc.name, tc.value)
		if got != tc.want {
			t.Errorf("Label(%q, %q) = %s, want %s", tc.name, tc.value, got, tc.want)
			continue
		}
		back, err := parseLabel(got+`,quantile="0.5"`, tc.name)
		if err != nil || back != tc.value {
			t.Errorf("%s parses back to %q (%v), want %q", got, back, err, tc.value)
		}
	}
}

// TestMetricsLabelRoundTrip registers a collection whose name holds a
// double quote and a backslash: every per-collection sample must carry a
// label a scraper parses back to the registered name.
func TestMetricsLabelRoundTrip(t *testing.T) {
	const weird = `we"ird\name`
	srv, ts, c := newTestServer(t)
	if err := srv.Register(weird, c); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		open, end := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if strings.HasPrefix(line, "#") || open < 0 || !strings.Contains(line, "collection=") {
			continue
		}
		name, err := parseLabel(line[open+1:end], "collection")
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		seen[name]++
	}
	if seen["paper"] == 0 || seen[weird] != seen["paper"] || len(seen) != 2 {
		t.Fatalf("per-collection samples by parsed name = %v, want %q and %q equally often", seen, "paper", weird)
	}
}
