package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"setdiscovery"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/server"
	"setdiscovery/internal/wireproto"
)

// maxRounds bounds one discovery; a session still asking after this many
// rounds fails.
const maxRounds = 256

// servingBench drives discoveries through the fleet's router, as a closed
// loop with zero think time: each worker starts its next discovery as soon
// as the previous one is finished and deleted. Solo sessions run over the
// JSON plane, batches over the stream plane.
//
// It runs in passes, each on a fresh fleet serving a fresh copy of the
// collection (the restart and its warm-up run between passes, untimed).
// The web workloads need that: the selection memo and the lookahead cache
// warm as they run, so without restarts a faster run would also be a
// warmer one. Each pass draws new discoveries from the run's seeded
// generator.
type servingBench struct {
	in        *inputs
	f         *fleet
	h         *hooks // nil unless set up for tracing
	plane     plane
	batch     int // members per batch; 0 runs solo sessions
	perSeed   int // a web pass visits every seed query this many times
	perWorker int // a hot pass gives each worker this many discoveries
	rng       *rand.Rand

	jsonc   *http.Client
	streams []*wireproto.Client // batches: one connection per worker
}

// item is one discovery: a seed query and its target, or a batch's targets.
type item struct {
	q       *seedQuery
	targets []*dataset.Set
}

func setupServing(in *inputs, seed int64, traced bool, batch, perSeed, perWorker int) (bench, error) {
	b := &servingBench{in: in, plane: planeJSON, batch: batch, perSeed: perSeed, perWorker: perWorker, rng: newRand(seed, -1)}
	if batch > 0 {
		b.plane = planeStream
	}
	if traced {
		b.h = &hooks{}
	}
	n := workers()
	b.jsonc = &http.Client{Timeout: callTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
	}}
	c, err := in.load()
	if err != nil {
		return nil, err
	}
	if err := b.start(c); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// nextPass draws the workers' discoveries for one pass. A web pass visits
// every seed query perSeed times, in a seeded order, with random targets,
// so the seed varies the targets, never the mix of seed queries; item i
// goes to worker i mod n. A hot pass gives every worker perWorker random
// discoveries.
func (b *servingBench) nextPass() [][]item {
	n := workers()
	lists := make([][]item, n)
	if b.perSeed == 0 {
		for w := range lists {
			for i := 0; i < b.perWorker; i++ {
				lists[w] = append(lists[w], b.drawFrom(&b.in.seeds[b.rng.Intn(len(b.in.seeds))]))
			}
		}
		return lists
	}
	key := 0
	for k := 0; k < b.perSeed; k++ {
		for _, i := range b.rng.Perm(len(b.in.seeds)) {
			lists[key%n] = append(lists[key%n], b.drawFrom(&b.in.seeds[i]))
			key++
		}
	}
	return lists
}

// start serves c from a new fleet, connects the stream clients, and warms
// up, untimed: one discovery per seed query, deleted after its first
// question, so every connection is open and every seed's root selection is
// in the memo and the lookahead cache.
func (b *servingBench) start(c *setdiscovery.Collection) error {
	var err error
	if b.f, err = startFleet(b.in.name, c, b.h); err != nil {
		return err
	}
	if err := b.connect(); err != nil {
		return err
	}
	for i := range b.in.seeds {
		if err := b.warm(i%workers(), &b.in.seeds[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// restart replaces the fleet with one serving a fresh copy of the
// collection, whose caches are cold. It collects the old fleet's garbage
// before it returns, so every pass starts from the same heap.
func (b *servingBench) restart() error {
	c, err := b.in.load()
	if err != nil {
		return err
	}
	b.f.close()
	if err := b.start(c); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// connect (re)opens the workers' stream connections.
func (b *servingBench) connect() error {
	for _, c := range b.streams {
		c.Close()
	}
	b.streams = b.streams[:0]
	if b.plane != planeStream {
		return nil
	}
	for i := 0; i < workers(); i++ {
		c, err := wireproto.Dial(b.f.routerStream, callTimeout)
		if err != nil {
			return fmt.Errorf("dialing the stream plane: %w", err)
		}
		b.streams = append(b.streams, c)
	}
	return nil
}

// warm creates one discovery from q on worker w's connection and deletes it
// once its first question is in.
func (b *servingBench) warm(w int, q *seedQuery) error {
	if b.plane == planeJSON {
		body, err := json.Marshal(server.CreateSessionRequest{Initial: q.initial})
		if err != nil {
			return err
		}
		var qr server.QuestionResponse
		if err := b.do(http.MethodPost, "/v1/collections/"+b.in.name+"/sessions", body, &qr); err != nil {
			return err
		}
		return b.do(http.MethodDelete, "/v1/sessions/"+qr.SessionID, nil, nil)
	}
	s := b.streams[w].OpenStream()
	defer s.Close()
	qf, err := s.Create(b.batchFrame(q, b.batch), callTimeout)
	if err != nil {
		return err
	}
	return b.do(http.MethodDelete, "/v1/batches/"+qf.ID, nil, nil)
}

// batchFrame asks for a batch of n members, all starting from q.
func (b *servingBench) batchFrame(q *seedQuery, n int) *wireproto.Create {
	seeds := make([][]string, n)
	for i := range seeds {
		seeds[i] = q.initial
	}
	return &wireproto.Create{Collection: b.in.name, Batch: true, Seeds: seeds}
}

func (b *servingBench) close() {
	for _, c := range b.streams {
		c.Close()
	}
	b.jsonc.CloseIdleConnections()
	if b.f != nil {
		b.f.close()
	}
}

// measure runs whole passes until d has passed since it began.
func (b *servingBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{start: time.Now(), clients: workers()}
	for pass := 0; pass == 0 || time.Since(p.start) < d; pass++ {
		if pass > 0 {
			if err := b.restart(); err != nil {
				return nil, err
			}
		}
		if b.h != nil {
			b.h.cur.Store(tr)
		}
		err := b.stretch(p, b.nextPass(), tr)
		if b.h != nil {
			b.h.cur.Store(nil)
		}
		if err != nil {
			return nil, err
		}
	}
	p.elapsed = time.Since(p.start)
	return p, nil
}

// pauser lets a calibration run alone. The workers hold it for reading
// while they drive the fleet and step aside at the next call boundary once
// a calibration waits. So a calibration waits for the calls in flight, not
// for whole discoveries: a web batch lasts about a quarter of a second, and
// waiting for one would leave the other worker alone for much of every
// calibration interval.
type pauser struct {
	mu      sync.RWMutex
	waiting atomic.Bool
}

// pause returns once every worker has stepped aside, and holds them there
// until resume.
func (g *pauser) pause() {
	g.waiting.Store(true)
	g.mu.Lock()
	g.waiting.Store(false)
}

func (g *pauser) resume() { g.mu.Unlock() }

// worker is one closed-loop client of a stretch. It times the discovery in
// progress in stretches: stepping aside for a calibration ends one stretch,
// and the next one runs in the interval that calibration opened.
type worker struct {
	id   int
	g    *pauser
	p    *phase    // read only for its calibration count, under g's read lock
	k    int       // the calibration interval the worker runs in
	cur  *record   // the discovery being timed, if any
	from time.Time // when cur's current stretch began
}

func (w *worker) enter() {
	w.g.mu.RLock()
	w.k = len(w.p.speeds) - 1
}

func (w *worker) leave() { w.g.mu.RUnlock() }

// yield steps aside while a calibration runs, if one waits.
func (w *worker) yield() {
	if !w.g.waiting.Load() {
		return
	}
	w.endStretch()
	w.leave()
	w.enter()
	w.from = time.Now()
}

// startTiming starts timing r's discovery; stopTiming ends it.
func (w *worker) startTiming(r *record) { w.cur, w.from = r, time.Now() }

func (w *worker) stopTiming() {
	w.endStretch()
	w.cur = nil
}

func (w *worker) endStretch() {
	if w.cur != nil {
		w.cur.whole = append(w.cur.whole, timing{ms(time.Since(w.from)), w.k})
	}
}

// stretch runs the workers once through their lists and adds what they
// observed, and what the process spent meanwhile, to p. It calibrates
// before the workers start, every calibrationEvery while they run, and
// after they finish; the workers step aside for each calibration, so the
// workload never runs beside the kernel and every call runs inside one
// calibration interval.
func (b *servingBench) stretch(p *phase, lists [][]item, tr *tracer) error {
	memo0, err := b.f.memoStats()
	if err != nil {
		return err
	}
	if err := p.calibrate(); err != nil {
		return err
	}
	g := &pauser{}
	stop := make(chan struct{})
	calibrated := make(chan error, 1)
	go func() {
		tick := time.NewTicker(calibrationEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				calibrated <- nil
				return
			case <-tick.C:
				g.pause()
				u0 := readUsage()
				err := p.calibrate()
				p.unspend(u0, readUsage())
				g.resume()
				if err != nil {
					calibrated <- err
					return
				}
			}
		}
	}()
	obs := make([]phase, len(lists))
	u0 := readUsage()
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{id: i, g: g, p: p}
			w.enter()
			defer w.leave()
			for _, it := range lists[i] {
				b.run(w, it, &obs[i], tr)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if err := <-calibrated; err != nil {
		return err
	}
	p.spent(u0, readUsage())
	if err := p.calibrate(); err != nil {
		return err
	}
	for i := range obs {
		p.merge(&obs[i])
	}
	memo1, err := b.f.memoStats()
	if err != nil {
		return err
	}
	p.memo.Hits += memo1.Hits - memo0.Hits
	p.memo.Misses += memo1.Misses - memo0.Misses
	p.memo.Evictions += memo1.Evictions - memo0.Evictions
	p.memo.Coalesced += memo1.Coalesced - memo0.Coalesced
	p.hygiene = errors.Join(p.hygiene, b.f.checkHygiene())
	return nil
}

// drawFrom picks a random target in q, or distinct targets for a batch.
func (b *servingBench) drawFrom(q *seedQuery) item {
	if b.batch > 0 {
		return item{q: q, targets: distinctTargets(b.rng, q.members, b.batch)}
	}
	return item{q: q, targets: []*dataset.Set{q.members[b.rng.Intn(len(q.members))]}}
}

// run runs one discovery as worker w and records it in p.
func (b *servingBench) run(w *worker, it item, p *phase, tr *tracer) {
	p.attempted++
	r := record{firstQ: timing{inf, w.k}}
	var err error
	if b.batch > 0 {
		err = b.batchStream(w, it.q, it.targets, &r, p, tr)
	} else {
		err = b.soloJSON(w, it.q, it.targets[0], &r, p, tr)
	}
	w.cur = nil
	if err != nil {
		r.whole = nil
		p.fail(err)
	}
	p.recs = append(p.recs, r)
}

func distinctTargets(rng *rand.Rand, members []*dataset.Set, n int) []*dataset.Set {
	n = min(n, len(members))
	picked := make(map[int]bool, n)
	out := make([]*dataset.Set, 0, n)
	for len(out) < n {
		if i := rng.Intn(len(members)); !picked[i] {
			picked[i] = true
			out = append(out, members[i])
		}
	}
	return out
}

// call times fn as one client call of worker w, recording a client span
// when tracing; *id is read after fn, so a create records the ID it minted.
// A waiting calibration runs before the call, never during it.
func (b *servingBench) call(w *worker, tr *tracer, o op, id *string, fn func() error) (time.Duration, error) {
	w.yield()
	var s0 int64
	if tr != nil {
		s0 = tr.now()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if tr != nil {
		tr.add(span{Tier: tierClient, Plane: b.plane, Op: o, ID: *id, Start: s0, End: tr.now(), Failed: err != nil})
	}
	return d, err
}

// do sends one JSON-plane request to the router and decodes a 2xx body
// into out; any other status is an error.
func (b *servingBench) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, b.f.routerURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.jsonc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	// Drain what the decoder left so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// remove deletes a finished resource through the router, untimed. The
// stream plane has no delete frame, and the router's owner table is shared
// across planes, so both planes delete over JSON.
func (b *servingBench) remove(w *worker, tr *tracer, kind, id string, prev error) error {
	_, err := b.call(w, tr, opDelete, &id, func() error {
		return b.do(http.MethodDelete, "/v1/"+kind+"/"+id, nil, nil)
	})
	if prev != nil {
		return prev
	}
	return err
}

// The discovery functions below fill r as they go: r.whole is complete
// only if the discovery completes, and a failed call leaves +Inf as its
// sample.

func (b *servingBench) soloJSON(w *worker, q *seedQuery, target *dataset.Set, r *record, p *phase, tr *tracer) (err error) {
	o := oracle{b.in.c.Internal(), target}
	w.startTiming(r)
	create, err := json.Marshal(server.CreateSessionRequest{Initial: q.initial})
	if err != nil {
		return err
	}
	var id string
	var qr server.QuestionResponse
	d, err := b.call(w, tr, opCreate, &id, func() error {
		if err := b.do(http.MethodPost, "/v1/collections/"+b.in.name+"/sessions", create, &qr); err != nil {
			return err
		}
		id = qr.SessionID
		return nil
	})
	if err != nil {
		return err
	}
	r.firstQ = timing{ms(d), w.k}
	defer func() { err = b.remove(w, tr, "sessions", id, err) }()
	for n := 0; !qr.Done; n++ {
		if n == maxRounds {
			return fmt.Errorf("session %s did not converge in %d rounds", id, maxRounds)
		}
		body, err := json.Marshal(server.AnswerRequest{
			Entity: qr.Entity, Confirm: qr.Confirm, Answer: o.reply(qr.Entity, qr.Confirm)})
		if err != nil {
			return err
		}
		d, err := b.call(w, tr, opRound, &id, func() error {
			return b.do(http.MethodPost, "/v1/sessions/"+id+"/answer", body, &qr)
		})
		if err != nil {
			r.rounds = append(r.rounds, timing{inf, w.k})
			return err
		}
		r.rounds = append(r.rounds, timing{us(d), w.k})
		p.roundCount++
	}
	var res server.ResultResponse
	if _, err := b.call(w, tr, opResult, &id, func() error {
		return b.do(http.MethodGet, "/v1/sessions/"+id+"/result", nil, &res)
	}); err != nil {
		return err
	}
	w.stopTiming()
	p.discovered(r, target.Name, res.Target, res.Questions, res.SelectionTimeUS)
	return nil
}

// batchStream runs one batch whose members share the seed query and have
// distinct targets; every round answers all live members in one
// batch-answer frame.
func (b *servingBench) batchStream(w *worker, q *seedQuery, targets []*dataset.Set, r *record, p *phase, tr *tracer) (err error) {
	d0 := b.in.c.Internal()
	s := b.streams[w.id].OpenStream()
	defer s.Close()
	w.startTiming(r)
	req := b.batchFrame(q, len(targets))
	var id string
	var qf *wireproto.Question
	d, err := b.call(w, tr, opCreate, &id, func() (err error) {
		if qf, err = s.Create(req, callTimeout); err == nil {
			id = qf.ID
		}
		return err
	})
	if err != nil {
		return err
	}
	r.firstQ = timing{ms(d), w.k}
	defer func() { err = b.remove(w, tr, "batches", id, err) }()
	for n := 0; !qf.Done; n++ {
		if n == maxRounds {
			return fmt.Errorf("batch %s did not converge in %d rounds", id, maxRounds)
		}
		ba := &wireproto.BatchAnswer{}
		for _, mq := range qf.Members {
			if mq.Error != "" {
				return fmt.Errorf("batch %s member %d: %s", id, mq.Member, mq.Error)
			}
			if mq.Done || mq.Member < 0 || mq.Member >= len(targets) {
				continue
			}
			o := oracle{d0, targets[mq.Member]}
			ba.Answers = append(ba.Answers, wireproto.MemberAnswer{
				Member: mq.Member, Entity: mq.Entity, Confirm: mq.Confirm, Answer: o.reply(mq.Entity, mq.Confirm)})
		}
		d, err := b.call(w, tr, opRound, &id, func() (err error) {
			qf, err = s.AnswerBatch(ba, callTimeout)
			return err
		})
		if err != nil {
			r.rounds = append(r.rounds, timing{inf, w.k})
			return err
		}
		r.rounds = append(r.rounds, timing{us(d), w.k})
		p.roundCount++
		p.memberRound += len(ba.Answers)
	}
	var res *wireproto.Result
	if _, err := b.call(w, tr, opResult, &id, func() (err error) {
		res, err = s.Result(callTimeout)
		return err
	}); err != nil || len(res.Members) != len(targets) {
		return errors.Join(err, fmt.Errorf("batch %s: results unavailable", id))
	}
	for _, m := range res.Members {
		if m.Member < 0 || m.Member >= len(targets) {
			return fmt.Errorf("batch %s: result for unknown member %d", id, m.Member)
		}
	}
	w.stopTiming()
	for _, m := range res.Members {
		p.discovered(r, targets[m.Member].Name, m.Target, m.Questions, m.SelectionTimeUS)
	}
	return nil
}
