package router

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"setdiscovery/internal/server"
)

// Crash-tolerant session resurrection. Graceful drain migrates sessions by
// exporting live state from the old owner — which a SIGKILLed engine can no
// longer provide. So the router opportunistically caches each tracked
// resource's most recent snapshot: piggybacked on answer traffic (the
// forwarded request gains ?include_state=1 every SnapshotEvery rounds, and
// the engine's response carries the snapshot inline — zero extra round
// trips), at creation, and on any state export that passes through. When
// the health loop declares a backend dead, every session it owned is
// re-imported onto its new ring owner from that last-known snapshot.
//
// The staleness bound is explicit: a resurrected session resumes at most
// SnapshotEvery-1 answered rounds behind the crash point (0 with
// SnapshotEvery=1), and the first JSON response after resurrection carries
// an
//
//	X-Setdisc-Resumed: from=<dead-backend>; questions=<n>
//
// header (n = the checkpoint's question count, -1 when unknown) so clients
// that tracked more rounds than n know to re-fetch the question and
// re-answer. The stream plane has no counterpart yet: its frames have no
// field for the notice, so it stays pending until the resource's next JSON
// response. Sessions with no cached snapshot (crash before the first
// capture) stay parked on the dead backend and answer 503 + Retry-After
// until it recovers.

// ResumedHeader marks the first JSON response of a resource after a crash
// resurrection.
const ResumedHeader = "X-Setdisc-Resumed"

// Snapshot-cache defaults: capture every answer round (a snapshot export
// is cheap relative to a strategy selection, and it makes resurrection
// lossless), keep the most recent few thousand sessions' checkpoints.
const (
	DefaultSnapshotEvery = 1
	DefaultSnapshotCache = 4096
)

// WithSnapshotEvery sets how many answered rounds may pass between
// snapshot captures (default DefaultSnapshotEvery). Larger values trade
// capture traffic for a wider resurrection staleness bound: after a crash
// a session may resume up to k-1 rounds behind.
func WithSnapshotEvery(k int) Option {
	return func(rt *Router) {
		if k >= 1 {
			rt.snapEvery = k
		}
	}
}

// snapEntry is one resource's last-known checkpoint.
type snapEntry struct {
	id         string
	collection string
	kindPath   string
	state      []byte // the engine's opaque snapshot bytes
	questions  int    // member-0 question count at capture; -1 unknown
}

// snapCache is a bounded LRU of last-known snapshots, keyed by resource ID.
type snapCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

func newSnapCache(max int) *snapCache {
	return &snapCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// put stores (or refreshes) a resource's checkpoint, evicting the least
// recently touched entry past the bound.
func (c *snapCache) put(e snapEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.id]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[e.id] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(snapEntry).id)
	}
}

// get returns a resource's checkpoint and marks it recently used.
func (c *snapCache) get(id string) (snapEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[id]
	if !ok {
		return snapEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(snapEntry), true
}

// drop forgets a resource's checkpoint (deleted/expired sessions).
func (c *snapCache) drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[id]; ok {
		c.ll.Remove(el)
		delete(c.m, id)
	}
}

// len returns the number of cached checkpoints.
func (c *snapCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// wantSnapshotLocked decides whether this answer round-trip should carry a
// snapshot capture: every snapEvery answered rounds, or immediately when no
// checkpoint exists yet.
func (rt *Router) wantSnapshotLocked(own *owner, id string) bool {
	own.sinceSnap++
	if own.sinceSnap >= rt.snapEvery {
		return true
	}
	_, have := rt.snaps.get(id)
	return !have
}

// captureInline extracts an inline snapshot (the "state" field the engine
// added because the forwarded request carried ?include_state=1) from a
// JSON response body and captures it. With strip, the field
// is removed from the returned body — clients never see a piggyback the
// router added; when the client asked for the state itself, strip is false
// and the body passes through intact. A body without the field (older
// engine, error response) passes through unchanged either way.
func (rt *Router) captureInline(id, collection, kindPath string, body []byte, strip bool) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	raw, ok := m["state"]
	if !ok {
		return body
	}
	var state []byte
	if err := json.Unmarshal(raw, &state); err != nil || len(state) == 0 {
		return body
	}
	questions := -1
	if qraw, ok := m["questions"]; ok {
		var q int
		if err := json.Unmarshal(qraw, &q); err == nil {
			questions = q
		}
	}
	rt.capture(snapEntry{id: id, collection: collection, kindPath: kindPath, state: state, questions: questions})
	if !strip {
		return body
	}
	delete(m, "state")
	stripped, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return stripped
}

// addIncludeState makes the forwarded query request an inline snapshot,
// reporting whether the router added the parameter itself (and so owes the
// client a stripped response). A query where the client already asked for
// the state is left alone.
func addIncludeState(rawQuery string) (string, bool) {
	vals, err := url.ParseQuery(rawQuery)
	if err != nil {
		vals = url.Values{}
	}
	if vals.Get("include_state") != "" {
		return rawQuery, false
	}
	vals.Set("include_state", "1")
	return vals.Encode(), true
}

// resurrectFrom re-places every tracked resource owned by the dead backend
// onto its collection's current ring owner, importing the last-known
// snapshot under the same ID. Resources without a checkpoint stay parked on
// the dead backend (503 to clients) in case it recovers. Called from the
// health loop after a death transition, outside the router lock.
func (rt *Router) resurrectFrom(ctx context.Context, dead *backend) {
	type victim struct {
		id  string
		own *owner
	}
	rt.mu.RLock()
	var victims []victim
	for id, own := range rt.owners {
		if own.b == dead {
			victims = append(victims, victim{id: id, own: own})
		}
	}
	rt.mu.RUnlock()
	resurrected, lost := 0, 0
	for _, v := range victims {
		snap, ok := rt.snaps.get(v.id)
		if !ok {
			lost++
			rt.logf("router: %s %s owned by dead backend %s has no cached snapshot; parked until recovery",
				kindNoun(v.own.kindPath), v.id, dead.name)
			continue
		}
		if err := rt.resurrectOne(ctx, v.id, v.own, dead, snap); err != nil {
			lost++
			rt.logf("router: resurrecting %s %s from %s: %v", kindNoun(v.own.kindPath), v.id, dead.name, err)
			continue
		}
		resurrected++
		rt.metrics.resurrections.Add(1)
	}
	if resurrected+lost > 0 {
		rt.logf("router: backend %s dead: resurrected %d resource(s) from last-known snapshots, %d unrecoverable",
			dead.name, resurrected, lost)
	}
}

// resurrectOne imports one checkpoint onto the collection's ring owner,
// then repoints affinity and marks the owner resumed so the next JSON
// response carries the ResumedHeader.
func (rt *Router) resurrectOne(ctx context.Context, id string, own *owner, dead *backend, snap snapEntry) error {
	dst, err := rt.importState(ctx, snap, func() *backend {
		if b := rt.ringOwner(snap.collection); b != dead {
			return b
		}
		return nil
	})
	if err != nil {
		return err
	}
	rt.mu.Lock()
	if cur, ok := rt.owners[id]; ok && cur == own && cur.b == dead {
		cur.b = dst
		cur.resumedFrom = dead.name
		cur.resumedQuestions = snap.questions
		cur.sinceSnap = 0
		rt.persistOwnerLocked(id, cur)
	}
	rt.mu.Unlock()
	return nil
}

// importState PUTs a checkpoint under its resource's ID onto the backend
// resolve picks before each attempt — the step migration and resurrection
// share. The PUT
// re-sends the same snapshot bytes, so it rides the retry policy. It
// returns the backend that took the import.
func (rt *Router) importState(ctx context.Context, snap snapEntry, resolve func() *backend) (*backend, error) {
	body, err := json.Marshal(server.ImportStateRequest{Collection: snap.collection, State: snap.state})
	if err != nil {
		return nil, err
	}
	var dst *backend
	status, respBody, err := rt.proxyRetry(ctx, http.MethodPut, func() *backend {
		dst = resolve()
		return dst
	}, "/v1/"+snap.kindPath+"/"+snap.id+"/state", "", "application/json", body, opTimeout)
	if err != nil {
		return nil, fmt.Errorf("import: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("import on %s answered %d: %s", dst.name, status, trim(respBody))
	}
	return dst, nil
}

// kindNoun renders "sessions" → "session" for log lines.
func kindNoun(kindPath string) string {
	if len(kindPath) > 0 && kindPath[len(kindPath)-1] == 's' {
		return kindPath[:len(kindPath)-1]
	}
	return kindPath
}
