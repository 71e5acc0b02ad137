package router

import (
	"fmt"
	"net/http"

	"setdiscovery/internal/wireproto"
)

// The owner-bookkeeping core. Both client planes — the JSON handlers
// (router.go) and the stream frame handlers (stream.go) — reach the owner
// table, whose entries hold each resource's affinity, checkpoint and
// answer journal, only through these four methods, so the two planes
// cannot drift apart: resolve looks up the owner of an exchange, adopt
// records a newly minted or imported ID, capture stores a checkpoint, and
// settle finishes an exchange. The planes themselves are codecs: they
// decode a request, forward it, and encode the answer.

// route is the resolved target of one client exchange.
type route struct {
	b          *backend
	kindPath   string // "sessions" or "batches"
	collection string
	wantSnap   bool   // an answer that should carry a snapshot capture
	own        *owner // an answer's owner entry, whose answer lock the route holds
}

// release gives up the answer lock an answer route holds, once its round
// has been settled.
func (r route) release() {
	if r.own != nil {
		r.own.answerMu.Unlock()
	}
}

// lockAnswers takes the answer lock of id's owner entry — the lock every
// answer round holds from resolve to settle, and migrations and state
// imports take too — or returns nil when id is untracked. The entry may be
// dropped while the caller waits, so callers check under rt.mu that it is
// still id's before they act on it.
func (rt *Router) lockAnswers(id string) *owner {
	rt.mu.RLock()
	own := rt.owners[id]
	rt.mu.RUnlock()
	if own != nil {
		own.answerMu.Lock()
	}
	return own
}

// resolve looks up the owner of id for one client exchange and slides the
// entry's TTL, so active resources never age out. kindPath "" (a stream
// attach) accepts either kind and takes the kind and collection from the
// entry; otherwise an entry of the other kind counts as unknown. An answer
// takes the entry's answer lock before it reads the entry's backend, and
// the caller releases the route once the round is settled: rounds reach
// the journal in the order the owner applied them, and a resurrection or
// migration (which take the same lock) never runs beside one. An answer
// also advances the snapshot cadence and learns whether this round should
// capture. Failures carry the status both planes answer
// with: 404 for an unknown ID, 503 for a dead owner — in which case the
// route still names it, so an idempotent JSON request can wait out a
// resurrection. A failed resolve holds no lock.
func (rt *Router) resolve(id, kindPath string, answer bool) (route, error) {
	var held *owner
	if answer {
		held = rt.lockAnswers(id)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	own, ok := rt.owners[id]
	// An entry dropped while the answer waited for its lock counts as
	// unknown, even if the ID has been adopted afresh since.
	if !ok || (kindPath != "" && own.kindPath != kindPath) || (answer && own != held) {
		route{own: held}.release()
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
		route{own: held}.release()
		what := id
		if kindPath != "" {
			what = kindNoun(kindPath) + " " + id
		}
		return rte, &wireproto.RemoteError{Status: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("backend %s holding %s is down", own.b.name, what)}
	}
	if answer {
		rte.own = own
		rte.wantSnap = rt.wantSnapshotLocked(own)
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

// capture stores state, the engine's snapshot of resource id, as the
// resource's checkpoint, with questions the question count at capture (-1
// unknown) — piggybacked on a forwarded create or answer, or an import or
// migration passing through — and restarts its snapshot cadence and answer
// journal:
// the checkpoint contains every round the journal held. It is the one
// writer of checkpoints. An import may name another collection than the
// entry did; the entry follows it, so placement and migration read the
// collection the state belongs to. An ID the router no longer tracks
// stores nothing. Callers hold the resource's answer lock, so no round is
// in flight beside the checkpoint — except for a resource just created or
// imported, whose ID no client holds yet.
func (rt *Router) capture(id, collection string, state []byte, questions int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	own, ok := rt.owners[id]
	if !ok {
		return
	}
	own.snap, own.snapQuestions = state, questions
	own.sinceSnap, own.journal, own.gap = 0, nil, false
	if collection != own.collection {
		own.collection = collection
		rt.persistOwnerLocked(id, own)
	}
	rt.metrics.captures.Add(1)
}

// settle finishes one exchange for id given the backend's status: a 404
// (expired behind our back) or a successful DELETE forgets the resource
// completely — its owner entry, checkpoint and journal included, and the
// persist record that would bring the entry back on restart.
//
// own is the answer-locked owner entry of an answer round (nil otherwise).
// A 200 acknowledges the round: its request body, round, joins the journal
// (a nil round carried a capture, which already holds it). Status 0 means
// the forward failed in transport, so the owner may have applied the
// answer unseen: the journal stops at that gap, and the next answer
// captures. Other statuses were not applied.
//
// With announce it hands out the one-shot resumed notice — the
// ResumedHeader value — and clears it. Only the JSON plane announces; the
// stream plane has no field to carry the notice, so it leaves it pending
// for the next JSON response.
func (rt *Router) settle(id string, status int, deleted, announce bool, own *owner, round []byte) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if status == http.StatusNotFound || (deleted && status < 300) {
		delete(rt.owners, id)
		rt.log.append(record{op: opDropOwner, id: id})
		return ""
	}
	cur, ok := rt.owners[id]
	if ok && cur == own {
		switch {
		case status == 0:
			own.gap = true
		case status == http.StatusOK && round != nil && !own.gap:
			own.journal = append(own.journal, round)
		}
	}
	if !announce || !ok || cur.resumedFrom == "" {
		return ""
	}
	notice := fmt.Sprintf("from=%s; questions=%d", cur.resumedFrom, cur.resumedQuestions)
	cur.resumedFrom = ""
	return notice
}
