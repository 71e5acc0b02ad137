package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/tree"
)

// treeBench is Algorithm 3 offline, with no serving: tree.Build over web
// seed queries' sub-collections, each build with a fresh k-LP factory so no
// build reuses another's lookahead cache. It cycles over a fixed set of
// sub-collections spread evenly over the sizes up to treeMaxSets, in a
// seeded order per cycle, so each tree is built several times (see
// phase.throughput for how a run counts the repetitions). Beyond about 800
// sets a build costs several times more (0.6–1.2 s against 0.03–0.25 s on a
// two-core 2.1 GHz Xeon), so the bound keeps one such tree in the set and
// about fifteen builds of each tree in a 20 s run.
type treeBench struct {
	subs    []*dataset.Subset // the sub-collections built, smallest first
	seed    int64
	workers int
}

func setupTreeBuild(in *inputs, sc scale, seed int64, _ bool) (bench, error) {
	c, err := in.load()
	if err != nil {
		return nil, err
	}
	d := c.Internal()
	var bySize []int
	for i, q := range in.seeds {
		if len(q.members) <= sc.treeMaxSets {
			bySize = append(bySize, i)
		}
	}
	if len(bySize) == 0 {
		return nil, fmt.Errorf("no seed query selects at most %d sets", sc.treeMaxSets)
	}
	sort.SliceStable(bySize, func(i, j int) bool { return len(in.seeds[bySize[i]].members) < len(in.seeds[bySize[j]].members) })
	b := &treeBench{seed: seed, workers: workers()}
	n := min(sc.trees, len(bySize))
	for k := 0; k < n; k++ {
		q := in.seeds[bySize[k*(len(bySize)-1)/max(n-1, 1)]]
		var pair []dataset.Entity
		for _, name := range q.initial {
			e, ok := d.Dict().Lookup(name)
			if !ok {
				return nil, fmt.Errorf("seed entity %q is not in the collection", name)
			}
			pair = append(pair, dataset.Entity(e))
		}
		b.subs = append(b.subs, d.SupersetsOf(pair))
	}
	// Warm-up: build the smallest tree once.
	warm := &phase{start: time.Now(), offline: true}
	b.build(0, warm, nil)
	if warm.firstErr != nil || len(warm.wrong) > 0 {
		return nil, fmt.Errorf("warm-up: %v %v", warm.firstErr, warm.wrong)
	}
	return b, nil
}

func (b *treeBench) close() {}

// measure builds until d has passed, calibrating before the first build,
// after the last, and between two builds once calibrationEvery has passed
// since the last calibration.
func (b *treeBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{start: time.Now(), offline: true}
	rng := newRand(b.seed, 0)
	var order []int
	var last time.Time
	for k := 0; k == 0 || time.Since(p.start) < d; k++ {
		if time.Since(last) >= calibrationEvery {
			if err := p.calibrate(); err != nil {
				return nil, err
			}
			last = time.Now()
		}
		if k%len(b.subs) == 0 {
			order = rng.Perm(len(b.subs))
		}
		b.build(order[k%len(b.subs)], p, tr)
	}
	if err := p.calibrate(); err != nil {
		return nil, err
	}
	p.elapsed = time.Since(p.start)
	return p, nil
}

// build builds the tree of b.subs[key] and checks that following it for
// every member set reaches that set.
func (b *treeBench) build(key int, p *phase, tr *tracer) {
	sub := b.subs[key]
	p.attempted++
	klp := strategy.NewKLP(cost.AD, 2)
	var rec strategy.Recorder
	klp.Instrument(&rec)
	tf := &timedFactory{Factory: klp, tr: tr, id: fmt.Sprintf("tree-%d", p.attempted)}
	var s0 int64
	if tr != nil {
		s0 = tr.now()
	}
	u0, t0 := readUsage(), time.Now()
	t, err := tree.Build(sub, tf, tree.WithParallelism(b.workers))
	took := time.Since(t0)
	p.spent(u0, readUsage())
	if tr != nil {
		tr.add(span{Tier: tierBuild, ID: tf.id, Start: s0, End: tr.now(), Failed: err != nil})
	}
	k := len(p.speeds) - 1
	r := record{key: key, firstQ: timing{inf, k}}
	defer func() { p.recs = append(p.recs, r) }()
	if err != nil {
		p.fail(err)
		return
	}
	r.whole, r.firstQ = []timing{{ms(took), k}}, timing{ms(tf.first), k}
	for _, v := range tf.selects {
		r.rounds = append(r.rounds, timing{v, k})
	}
	c := sub.Collection()
	for _, i := range sub.Members() {
		s := c.Set(int(i))
		leaf, n := t.Follow(s)
		p.discovered(&r, s.Name, leaf.Name, n, 0)
	}
	cs := klp.CacheStats()
	p.lookHits += cs.Hits
	p.lookMisses += cs.Misses
	if len(rec.Nodes) > 0 {
		p.rootPruned = append(p.rootPruned, rec.Nodes[0].PrunedFraction())
	}
}

// timedFactory times every Select of the strategies it mints. The first
// Select of a build is the root's: tree.Build selects the root on the
// calling goroutine before it forks any worker.
type timedFactory struct {
	strategy.Factory
	tr *tracer
	id string

	mu      sync.Mutex
	first   time.Duration
	selects []float64 // µs
}

func (f *timedFactory) New() strategy.Strategy {
	return &timedStrategy{Strategy: f.Factory.New(), f: f}
}

type timedStrategy struct {
	strategy.Strategy
	f *timedFactory
}

func (s *timedStrategy) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	tr := s.f.tr
	var s0 int64
	if tr != nil {
		s0 = tr.now()
	}
	t0 := time.Now()
	e, ok := s.Strategy.Select(sub)
	d := time.Since(t0)
	if tr != nil {
		tr.add(span{Tier: tierSelect, Op: opRound, ID: s.f.id, Start: s0, End: tr.now()})
	}
	s.f.mu.Lock()
	if len(s.f.selects) == 0 {
		s.f.first = d
	}
	s.f.selects = append(s.f.selects, us(d))
	s.f.mu.Unlock()
	return e, ok
}
