package router

import (
	"fmt"
	"net/http"

	"setdiscovery/internal/wireproto"
)

// The owner-bookkeeping core. Both client planes — the JSON handlers
// (router.go) and the stream frame handlers (stream.go) — reach the
// affinity table and the snapshot cache only through these four methods,
// so the two planes cannot drift apart: resolve looks up the owner of an
// exchange, adopt records a newly minted or imported ID, capture stores a
// checkpoint, and settle finishes an exchange. The planes themselves are
// codecs: they decode a request, forward it, and encode the answer.

// route is the resolved target of one client exchange.
type route struct {
	b          *backend
	kindPath   string // "sessions" or "batches"
	collection string
	wantSnap   bool // an answer that should carry a snapshot capture
}

// resolve looks up the owner of id for one client exchange and slides the
// entry's TTL, so active resources never age out. kindPath "" (a stream
// attach) accepts either kind and takes the kind and collection from the
// entry; otherwise an entry of the other kind counts as unknown. An answer
// advances the snapshot cadence and reports whether this round should
// capture. Failures carry the status both planes answer with: 404 for an
// unknown ID, 503 for a dead owner — in which case the route still names
// it, so an idempotent JSON request can wait out a resurrection.
func (rt *Router) resolve(id, kindPath string, answer bool) (route, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	own, ok := rt.owners[id]
	if !ok || (kindPath != "" && own.kindPath != kindPath) {
		noun := "resource"
		if kindPath != "" {
			noun = kindNoun(kindPath)
		}
		return route{}, &wireproto.RemoteError{Status: http.StatusNotFound,
			Msg: "unknown or expired " + noun}
	}
	own.lastSeen = rt.now()
	rte := route{b: own.b, kindPath: own.kindPath, collection: own.collection}
	if own.b.state == stateDead {
		what := id
		if kindPath != "" {
			what = kindNoun(kindPath) + " " + id
		}
		return rte, &wireproto.RemoteError{Status: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("backend %s holding %s is down", own.b.name, what)}
	}
	if answer {
		rte.wantSnap = rt.wantSnapshotLocked(own, id)
	}
	return rte, nil
}

// adopt starts tracking a resource b has just minted (create) or taken in
// (external state import), journals the entry, and ages out idle ones.
func (rt *Router) adopt(id string, b *backend, kindPath, collection string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.now()
	own := &owner{b: b, kindPath: kindPath, collection: collection, lastSeen: now}
	rt.owners[id] = own
	rt.persistOwnerLocked(id, own)
	rt.sweepOwnersLocked(now)
}

// capture stores a resource's latest checkpoint — piggybacked on a
// forwarded round, or a state export, import or migration passing through —
// and restarts its snapshot cadence. It is the snapshot cache's one writer.
func (rt *Router) capture(e snapEntry) {
	rt.snaps.put(e)
	rt.mu.Lock()
	if own, ok := rt.owners[e.id]; ok {
		own.sinceSnap = 0
	}
	rt.mu.Unlock()
}

// settle finishes one exchange for id given the backend's status: a 404
// (expired behind our back) or a successful DELETE forgets the resource
// completely — affinity entry, cached snapshot, and the journal record that
// would bring either back on restart. With announce it hands out the
// one-shot resumed notice — the ResumedHeader value — and clears it. Only
// the JSON plane announces; the stream plane has no field to carry the
// notice, so it leaves it pending for the next JSON response.
func (rt *Router) settle(id string, status int, deleted, announce bool) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if status == http.StatusNotFound || (deleted && status < 300) {
		delete(rt.owners, id)
		rt.log.append(record{op: opDropOwner, id: id})
		rt.snaps.drop(id)
		return ""
	}
	own, ok := rt.owners[id]
	if !announce || !ok || own.resumedFrom == "" {
		return ""
	}
	notice := fmt.Sprintf("from=%s; questions=%d", own.resumedFrom, own.resumedQuestions)
	own.resumedFrom = ""
	return notice
}
