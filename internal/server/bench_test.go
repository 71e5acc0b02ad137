package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"setdiscovery"
)

// benchCollection builds a 64-set synthetic collection (same shape as the
// root package's multi-session tests) for throughput measurement.
func benchCollection(b *testing.B) (*setdiscovery.Collection, []string) {
	b.Helper()
	sets := make(map[string][]string, 64)
	for i := 0; i < 64; i++ {
		var elems []string
		for bit := 0; bit < 10; bit++ {
			if i&(1<<bit) != 0 {
				elems = append(elems, fmt.Sprintf("bit%d", bit))
			}
		}
		elems = append(elems, fmt.Sprintf("marker%d", i))
		sets[fmt.Sprintf("S%03d", i)] = elems
	}
	c, err := setdiscovery.NewCollection(sets)
	if err != nil {
		b.Fatal(err)
	}
	return c, c.Names()
}

// BenchmarkServerSessionThroughput measures complete discovery sessions per
// second through the full HTTP stack — create, every question/answer
// round-trip, result — with concurrent clients sharing one server, the
// serving layer's headline number. The "loop" variant creates sessions
// under the default options; the "tree" variant creates them with
// "tree": true, under the options of the registered tree, which were the
// defaults too, so both serve one kind of session.
func BenchmarkServerSessionThroughput(b *testing.B) {
	for _, mode := range []struct {
		name string
		tree bool
	}{{"loop", false}, {"tree", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c, names := benchCollection(b)
			srv := New()
			if err := srv.Register("bench", c); err != nil {
				b.Fatal(err)
			}
			tr, err := c.BuildTree()
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.RegisterTree("bench", tr); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			oracles := make([]setdiscovery.Oracle, len(names))
			for i, name := range names {
				if oracles[i], err = c.TargetOracle(name); err != nil {
					b.Fatal(err)
				}
			}
			body, err := json.Marshal(CreateSessionRequest{Tree: mode.tree})
			if err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := ts.Client()
				for i := 0; pb.Next(); i++ {
					target := (i*13 + 7) % len(names)
					if err := benchResolve(client, ts.URL, body, oracles[target], names[target]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// benchResolve is the scripted client of one benchmark iteration.
func benchResolve(client *http.Client, baseURL string, createBody []byte, oracle setdiscovery.Oracle, want string) error {
	post := func(url string, body []byte, out any) error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var q QuestionResponse
	if err := post(baseURL+"/v1/collections/bench/sessions", createBody, &q); err != nil {
		return err
	}
	yes, no := []byte(`{"answer":"yes"}`), []byte(`{"answer":"no"}`)
	for !q.Done {
		body := no
		if oracle.Answer(q.Entity) == setdiscovery.Yes {
			body = yes
		}
		if err := post(baseURL+"/v1/sessions/"+q.SessionID+"/answer", body, &q); err != nil {
			return err
		}
	}
	var res ResultResponse
	resp, err := client.Get(baseURL + "/v1/sessions/" + q.SessionID + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}
	if res.Target != want {
		return fmt.Errorf("discovered %q, want %q", res.Target, want)
	}
	return nil
}

// BenchmarkStore isolates the session store: puts, touched gets and
// deletes under parallel load, the fixed overhead every round-trip pays.
func BenchmarkStore(b *testing.B) {
	c, _ := benchCollection(b)
	sess, err := c.NewSession(nil)
	if err != nil {
		b.Fatal(err)
	}
	st := NewStore(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id, err := st.Put(&Stored{Session: sess})
			if err != nil {
				b.Error(err)
				return
			}
			if _, ok := st.Get(id); !ok {
				b.Error("stored session vanished")
				return
			}
			st.Delete(id)
		}
	})
}

// BenchmarkWriteJSON isolates the response-writing hot path every
// interaction round pays: encoding a QuestionResponse to the wire. With
// the pooled buffer+encoder pair the steady state allocates only the
// interface boxing of the response value itself (96 B/op, 1 alloc/op,
// down from 112 B/op, 2 allocs/op), and the body reaches net/http as a
// single Write instead of an encoder-driven stream.
func BenchmarkWriteJSON(b *testing.B) {
	s := New()
	resp := QuestionResponse{
		SessionID: "0123456789abcdef0123456789abcdef",
		Entity:    "some-entity-name",
		Questions: 17,
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &discardResponseWriter{h: make(http.Header)}
		for pb.Next() {
			s.writeJSON(w, http.StatusOK, resp)
		}
	})
}

// discardResponseWriter is the cheapest possible sink, so the benchmark
// measures encoding, not a test recorder's buffer growth.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header       { return w.h }
func (*discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (*discardResponseWriter) WriteHeader(int)             {}
