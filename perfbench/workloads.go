package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"setdiscovery"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/webtables"
)

// scale sizes the inputs. fullScale is what the benchmark runs; the tests
// use a small one so every workload runs end to end in about a second.
type scale struct {
	corpus       webtables.Params
	minSets      int           // smallest seed sub-collection (the paper keeps ≥ 100)
	maxSets      int           // largest seed sub-collection served or built
	seedPairs    int           // seed pairs mined before the size filter
	setupReps    int           // set-ups per run at least; setup_s is their median
	setupTime    time.Duration // then keep setting up, at most maxSetups times, until this long is spent
	batch        int           // members per web-batches batch
	passSessions int           // sessions per seed query in one web-sessions pass
	hotPass      int           // discoveries per worker in one hot-rounds pass
	trees        int           // sub-collections tree-build cycles over
	treeMaxSets  int           // largest sub-collection tree-build builds
}

// seedPairsSeed fixes the seed pairs the web workloads mine, so every run
// serves and builds the same sub-collections; a run's seed picks targets
// and order.
const seedPairsSeed = 1

var fullScale = scale{
	corpus:       webtables.DefaultParams(),
	minSets:      100,
	maxSets:      1500,
	seedPairs:    64,
	setupReps:    3,
	setupTime:    time.Second,
	batch:        8,
	passSessions: 4,
	hotPass:      1000,
	trees:        8,
	treeMaxSets:  850,
}

// workload is one named input set and how to run it.
type workload struct {
	name string
	// inputs generates what every set-up of a run shares: the collection's
	// source and the seed queries. It is not part of the timed set-up.
	inputs func(sc scale) (*inputs, error)
	// setup loads a fresh collection from in, starts what the workload
	// serves from (with trace hooks when traced), and runs its warm-up;
	// seed picks the discoveries.
	setup func(in *inputs, sc scale, seed int64, traced bool) (bench, error)
}

// bench is a set-up workload, ready to measure.
type bench interface {
	// measure runs the workload's closed loop for about d. With tr non-nil
	// it records spans into tr.
	measure(d time.Duration, tr *tracer) (*phase, error)
	close()
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each exists.
var workloads = []workload{
	{"hot-rounds", hotInputs, func(in *inputs, sc scale, seed int64, traced bool) (bench, error) {
		return setupServing(in, seed, traced, 0, 0, sc.hotPass)
	}},
	{"web-sessions", webInputs, func(in *inputs, sc scale, seed int64, traced bool) (bench, error) {
		return setupServing(in, seed, traced, 0, sc.passSessions, 0)
	}},
	{"web-batches", webInputs, func(in *inputs, sc scale, seed int64, traced bool) (bench, error) {
		return setupServing(in, seed, traced, sc.batch, 1, 0)
	}},
	{"tree-build", webInputs, setupTreeBuild},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is the closed loop's concurrency: one client worker per CPU.
func workers() int { return runtime.NumCPU() }

// seedQuery is one starting point of a discovery: the initial examples and
// the member sets of the sub-collection they select — every possible
// target.
type seedQuery struct {
	initial []string
	members []*dataset.Set
}

// inputs is a collection's source and the seed queries drawn over it.
type inputs struct {
	name string
	// c is the inputs' own copy of the collection: the targets are its sets,
	// and the oracle answers from it.
	c     *setdiscovery.Collection
	seeds []seedQuery
	// load builds a fresh copy of the collection, with cold caches, to serve
	// or build trees from.
	load func() (*setdiscovery.Collection, error)
}

// hotInputs is the synthetic 64-set collection: each set holds the bits of
// its index's 10-bit pattern plus a distinguishing marker. Sessions start
// from no initial examples, so every session walks one shared question
// tree and the selection memo serves nearly every selection.
func hotInputs(scale) (*inputs, error) {
	sets := make(map[string][]string, 64)
	for i := 0; i < 64; i++ {
		var elems []string
		for bit := 0; bit < 10; bit++ {
			if i&(1<<bit) != 0 {
				elems = append(elems, fmt.Sprintf("bit%d", bit))
			}
		}
		sets[fmt.Sprintf("S%03d", i)] = append(elems, fmt.Sprintf("marker%d", i))
	}
	load := func() (*setdiscovery.Collection, error) { return setdiscovery.NewCollection(sets) }
	c, err := load()
	if err != nil {
		return nil, err
	}
	return &inputs{name: "hot", c: c, seeds: []seedQuery{{members: c.Internal().Sets()}}, load: load}, nil
}

// webInputs is the §5.2.1 web-tables scenario: the synthetic corpus in the
// text format a deployment loads, and its two-example seed queries.
func webInputs(sc scale) (*inputs, error) {
	corpus, err := webtables.Generate(sc.corpus)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := corpus.WriteText(&buf); err != nil {
		return nil, err
	}
	text := buf.Bytes()
	load := func() (*setdiscovery.Collection, error) { return setdiscovery.ReadCollection(bytes.NewReader(text)) }
	c, err := load()
	if err != nil {
		return nil, err
	}
	d := c.Internal()
	in := &inputs{name: "web", c: c, load: load}
	for _, q := range webtables.SeedQueries(d, sc.minSets, sc.seedPairs, seedPairsSeed) {
		if q.Size > sc.maxSets {
			continue
		}
		sub := d.SupersetsOf([]dataset.Entity{q.A, q.B})
		members := make([]*dataset.Set, 0, sub.Size())
		for _, i := range sub.Members() {
			members = append(members, d.Set(int(i)))
		}
		in.seeds = append(in.seeds, seedQuery{
			initial: []string{d.EntityName(q.A), d.EntityName(q.B)},
			members: members,
		})
	}
	if len(in.seeds) == 0 {
		return nil, fmt.Errorf("no seed query selects %d..%d sets", sc.minSets, sc.maxSets)
	}
	return in, nil
}

// newRand returns the deterministic generator of one worker's session list.
func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// oracle answers membership questions truthfully for one target set.
type oracle struct {
	c   *dataset.Collection
	set *dataset.Set
}

func (o oracle) answer(entity string) string {
	if id, ok := o.c.Dict().Lookup(entity); ok && o.set.Contains(id) {
		return "yes"
	}
	return "no"
}

// reply answers a question: an entity question by membership, a
// confirmation by name.
func (o oracle) reply(entity, confirm string) string {
	switch {
	case entity != "":
		return o.answer(entity)
	case confirm == o.set.Name:
		return "yes"
	}
	return "no"
}
