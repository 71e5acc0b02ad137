package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"

	"setdiscovery/internal/server"
)

// Crash-tolerant session resurrection. Graceful drain migrates sessions by
// exporting live state from the old owner — which a SIGKILLed engine can no
// longer provide. So the router keeps, in each tracked resource's owner
// entry, a checkpoint (its most recent snapshot) plus an answer journal:
// the answer rounds the owner acknowledged since that snapshot, in apply
// order. A session's state is a pure function of its create request and
// its answers, so the two together name its current state exactly. Both
// live and die with the entry, so their memory is bounded as the owner
// table's is: by engine admission and owner-TTL aging.
//
// Snapshots ride existing traffic: the forwarded create, and every
// SnapshotEvery-th answer, asks the engine for its state inline
// (?include_state=1 on JSON, WantState on frames), and the router strips it
// from the reply — zero extra round trips. Every other acknowledged answer
// joins the journal as the JSON body of the engine's answer endpoint, so
// SnapshotEvery bounds the journal's length and the replay work of a
// death, not staleness. When the health loop declares a backend dead,
// every resource it owned is re-imported onto its new ring owner from the
// snapshot, and the journal is replayed through the survivor's ordinary
// POST …/answer(s) path: the resource resumes at its last acknowledged
// round at any cadence.
//
// One case resumes earlier. When an answer's forward fails in transport,
// the owner may have applied it without the router seeing the reply; the
// journal then stops at that gap and the next answer captures a snapshot.
// A death inside that window replays the prefix before the gap — a true
// past state, possibly one round behind what the owner held.
//
// The first JSON response after a resurrection carries an
//
//	X-Setdisc-Resumed: from=<dead-backend>; questions=<n>
//
// header (n = the resumed question count, -1 when unknown, as for batches)
// so clients that tracked more rounds than n know to re-fetch the question
// and re-answer. The stream plane has no counterpart yet: its frames have
// no field for the notice, so it stays pending until the resource's next
// JSON response. A resource with no checkpoint — its owner crashed before
// the first capture reached the router, or its entry was replayed from the
// persist log, which keeps placement but not state — stays parked on the
// dead backend and answers 503 + Retry-After until it recovers.

// ResumedHeader marks the first JSON response of a resource after a crash
// resurrection.
const ResumedHeader = "X-Setdisc-Resumed"

// DefaultSnapshotEvery is the default capture cadence: every 16th answer
// round (the journal covers the rounds between, so resurrection stays
// lossless, and a session that finishes within 15 answers captures at
// create only).
const DefaultSnapshotEvery = 16

// WithSnapshotEvery sets how many answered rounds may pass between
// snapshot captures (default DefaultSnapshotEvery). The rounds between are
// journaled, so a resurrection resumes at the last acknowledged round at
// any cadence: larger values trade capture work on the answer path for a
// longer journal per live resource and more rounds to replay after a
// death (at most k-1 each).
func WithSnapshotEvery(k int) Option {
	return func(rt *Router) {
		if k >= 1 {
			rt.snapEvery = k
		}
	}
}

// wantSnapshotLocked decides whether this answer round-trip should carry a
// snapshot capture: every snapEvery answered rounds, immediately when no
// checkpoint exists yet, and after a gap in the journal.
func (rt *Router) wantSnapshotLocked(own *owner) bool {
	own.sinceSnap++
	return own.sinceSnap >= rt.snapEvery || own.gap || own.snap == nil
}

// captureInline extracts an inline snapshot (the "state" field the engine
// added because the forwarded request carried ?include_state=1) from a
// JSON response body and captures it, reporting whether it did. With
// strip, the field is removed from the returned body — clients never see a
// piggyback the router added; when the client asked for the state itself,
// strip is false and the body passes through intact. A body without the
// field (older engine, error response) passes through unchanged either
// way.
func (rt *Router) captureInline(id, collection string, body []byte, strip bool) ([]byte, bool) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body, false
	}
	raw, ok := m["state"]
	if !ok {
		return body, false
	}
	var state []byte
	if err := json.Unmarshal(raw, &state); err != nil || len(state) == 0 {
		return body, false
	}
	questions := -1
	if qraw, ok := m["questions"]; ok {
		var q int
		if err := json.Unmarshal(qraw, &q); err == nil {
			questions = q
		}
	}
	rt.capture(id, collection, state, questions)
	if !strip {
		return body, true
	}
	delete(m, "state")
	stripped, err := json.Marshal(m)
	if err != nil {
		return body, true
	}
	return stripped, true
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

// errNoSnapshot reports a victim of a backend death with no checkpoint to
// resurrect from.
var errNoSnapshot = errors.New("no checkpoint")

// resurrectWorkers bounds the victims of one death resurrected at once. A
// victim whose answer lock a round in flight to the dead owner holds waits
// out that round's proxy timeout; it must not hold up the others, and a
// death must not fan out into one import per victim at the same instant.
const resurrectWorkers = 8

// resurrectFrom re-places every tracked resource owned by the dead backend
// onto its collection's current ring owner: the checkpoint is imported
// under the same ID and the answer journal replayed on top, up to
// resurrectWorkers resources at a time. It returns once every victim is
// done. Resources without a checkpoint stay parked on the dead backend
// (503 to clients) in case it recovers. Called from the health loop after
// a death transition, outside the router lock.
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
	var resurrected, lost atomic.Int64
	sem := make(chan struct{}, resurrectWorkers)
	var wg sync.WaitGroup
	for _, v := range victims {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			moved, err := rt.resurrectOne(ctx, v.id, v.own, dead)
			switch {
			case errors.Is(err, errNoSnapshot):
				lost.Add(1)
				rt.logf("router: %s %s owned by dead backend %s has no checkpoint; parked until recovery",
					kindNoun(v.own.kindPath), v.id, dead.name)
			case err != nil:
				lost.Add(1)
				rt.logf("router: resurrecting %s %s from %s: %v", kindNoun(v.own.kindPath), v.id, dead.name, err)
			case moved:
				resurrected.Add(1)
				rt.metrics.resurrections.Add(1)
			}
		}()
	}
	wg.Wait()
	if n, l := resurrected.Load(), lost.Load(); n+l > 0 {
		rt.logf("router: backend %s dead: resurrected %d resource(s) from their checkpoints, %d unrecoverable",
			dead.name, n, l)
	}
}

// resurrectOne imports one resource's checkpoint onto the collection's
// ring owner and replays its answer journal there, then repoints affinity
// and marks the owner resumed so the next JSON response carries the
// ResumedHeader. It holds the resource's answer lock throughout, so no
// client round runs beside the replay; a round that waited for it is
// forwarded to the new owner. A replay that is not answered 200 ends the
// replay: the resource resumes at the prefix before it. It reports false
// when the resource had already left the dead backend.
func (rt *Router) resurrectOne(ctx context.Context, id string, own *owner, dead *backend) (bool, error) {
	own.answerMu.Lock()
	defer own.answerMu.Unlock()
	rt.mu.RLock()
	onDead := rt.owners[id] == own && own.b == dead
	kindPath, collection := own.kindPath, own.collection
	snap, questions, journal := own.snap, own.snapQuestions, own.journal
	rt.mu.RUnlock()
	if !onDead {
		return false, nil
	}
	if snap == nil {
		return false, errNoSnapshot
	}
	dst, err := rt.importState(ctx, id, kindPath, collection, snap, func() *backend {
		if b := rt.ringOwner(collection); b != dead {
			return b
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	path := "/v1/" + kindPath + "/" + id + "/answer"
	if kindPath == "batches" {
		path += "s"
	}
	replayed, gap := 0, false
	for _, body := range journal {
		status, reply, err := rt.doProxy(ctx, http.MethodPost, dst, path, "", "application/json", body, opTimeout)
		if err != nil || status != http.StatusOK {
			// A transport failure leaves this replay's fate unknown.
			gap = err != nil
			rt.logf("router: replaying round %d of %s %s on %s: status %d, %v; resuming at round %d",
				replayed+1, kindNoun(kindPath), id, dst.name, status, err, replayed)
			break
		}
		replayed++
		if kindPath == "sessions" {
			var q server.QuestionResponse
			if json.Unmarshal(reply, &q) == nil {
				questions = q.Questions
			}
		}
	}
	rt.metrics.replayedAnswers.Add(int64(replayed))
	rt.mu.Lock()
	if rt.owners[id] == own && own.b == dead {
		own.b = dst
		own.resumedFrom = dead.name
		own.resumedQuestions = questions
		own.sinceSnap = replayed
		own.journal = journal[:replayed]
		own.gap = gap
		rt.persistOwnerLocked(id, own)
	}
	rt.mu.Unlock()
	return true, nil
}

// importState PUTs a resource's state under its ID onto the backend
// resolve picks before each attempt — the step migration and resurrection
// share. The PUT re-sends the same snapshot bytes, so it rides the retry
// policy. It returns the backend that took the import.
func (rt *Router) importState(ctx context.Context, id, kindPath, collection string, state []byte, resolve func() *backend) (*backend, error) {
	body, err := json.Marshal(server.ImportStateRequest{Collection: collection, State: state})
	if err != nil {
		return nil, err
	}
	var dst *backend
	status, respBody, err := rt.proxyRetry(ctx, http.MethodPut, func() *backend {
		dst = resolve()
		return dst
	}, "/v1/"+kindPath+"/"+id+"/state", "", "application/json", body, opTimeout)
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
