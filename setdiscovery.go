// Package setdiscovery implements interactive set discovery (Hasnat &
// Rafiei, EDBT 2023): given a closed collection of sets and a few example
// members of a desired target set, find the target with as few yes/no
// membership questions as possible.
//
// The search builds (implicitly or explicitly) a binary decision tree whose
// leaves are the candidate sets and whose internal nodes ask "is entity e in
// your set?". Entity selection uses the paper's k-step lookahead lower
// bounds with pruning (k-LP and its bounded variants k-LPLE/k-LPLVE), which
// match or beat the classical information-gain heuristic while pruning the
// lookahead search space by orders of magnitude.
//
// # Quick start
//
//	c, err := setdiscovery.NewCollection(map[string][]string{
//	    "flu":     {"fever", "cough", "fatigue"},
//	    "covid":   {"fever", "cough", "anosmia"},
//	    "allergy": {"sneezing", "itchy eyes"},
//	})
//	...
//	res, err := c.Discover([]string{"fever"}, oracle)     // ask the user
//	tr, err := c.BuildTree(setdiscovery.WithStrategy("klp"), setdiscovery.WithK(3))
//
// # Concurrency
//
// A Collection and a Tree are safe for any number of concurrent Discover,
// DiscoverWithTree and read-only calls over one shared instance: the
// underlying dataset and tree are immutable, every discovery session draws
// its own strategy instance from a per-collection factory, and the lookahead
// memo caches behind those factories are concurrency-safe and shared — work
// done by one session or tree build speeds up the next. BuildTree itself
// fans the Yes/No recursion out over a bounded worker pool (WithParallelism,
// default GOMAXPROCS) and produces output identical to the sequential build.
//
// The sub-packages under internal/ hold the full machinery: cost bounds,
// the fingerprint cache, strategy factories, tree construction, the
// discovery loop, dataset generators and the experiment harness reproducing
// the paper's evaluation.
package setdiscovery

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/tree"
)

// Metric selects what a decision tree optimises.
type Metric = cost.Metric

const (
	// AverageDepth minimises the expected number of questions (paper
	// metric AD).
	AverageDepth Metric = cost.AD
	// Height minimises the worst-case number of questions (paper metric H).
	Height Metric = cost.H
)

// Collection is an immutable collection of uniquely-named, unique sets of
// string entities — the closed search space of set discovery. It is safe
// for concurrent use: any number of goroutines may run Discover,
// DiscoverWithTree, BuildTree and the read accessors over one shared
// instance. Sessions with equal strategy options share a lookahead cache,
// so concurrent and repeated discoveries amortise each other's work. Every
// entity session, batch member and Discover call also selects through the
// collection's selection memo, keyed by candidate set and selection
// options: sessions parked at one state, concurrently or over time, pay one
// selection between them and ask identical questions (SelectionCacheStats).
type Collection struct {
	c *dataset.Collection

	// factories caches one strategy factory per distinct strategy
	// configuration, so every session and build over this collection with
	// the same options shares that factory's fingerprint caches. A
	// factory's lineage also owns the scratches its selections borrow,
	// whose views point into this collection; keeping factories per
	// collection lets them die with it.
	mu        sync.Mutex
	factories map[strategyKey]strategy.Factory

	// memo is the collection-wide selection memo shared by every entity
	// session, batch member and Discover call over this collection,
	// regardless of strategy configuration — an options hash in the key
	// keeps differently configured sessions from sharing entries. Lazily
	// created; the entry bound is fixed by whichever configuration touches
	// it first.
	memo *discovery.SelectionMemo
}

// strategyKey identifies a strategy configuration; options that do not
// affect entity selection (batching, halting, backtracking) are excluded.
// The cache bound is part of the key: factories with different bounds must
// not share one cache.
type strategyKey struct {
	name   string
	metric Metric
	k, q   int
	bound  int
}

// factory returns the shared strategy factory for cfg, creating it on first
// use. The name is normalised once so that the cache key and the created
// strategy always agree — "KLP" and "klp" share one factory and are
// validated identically no matter which spelling arrives first.
func (c *Collection) factory(cfg config) (strategy.Factory, error) {
	name := strings.ToLower(cfg.strategyName)
	key := strategyKey{name, cfg.metric, cfg.k, cfg.q, cfg.cacheBound}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.factories[key]; ok {
		return f, nil
	}
	f, err := strategy.New(name, cfg.metric, cfg.k, cfg.q)
	if err != nil {
		return nil, err
	}
	// Applied before the factory is shared or mints any sibling, so the
	// whole lineage runs against the bounded cache. Strategies without a
	// cache (the greedy baselines) simply ignore the option.
	if b, ok := f.(interface{ SetCacheBound(int) }); ok {
		b.SetCacheBound(cfg.cacheBound)
	}
	if c.factories == nil {
		c.factories = make(map[strategyKey]strategy.Factory)
	}
	c.factories[key] = f
	return f, nil
}

// groupStrategy builds the group-testing strategy for cfg, resolving
// constraint entity names against this collection. Group strategies are not
// cached: unlike the lookahead strategies they hold no shared memo state, so
// building one per session costs nothing worth amortising.
func (c *Collection) groupStrategy(cfg config) (grouptest.Strategy, error) {
	constraints := make([]grouptest.Constraint, 0, len(cfg.groupConstraints))
	for _, pair := range cfg.groupConstraints {
		ifID, ok := c.c.Dict().Lookup(pair[0])
		if !ok {
			return nil, fmt.Errorf("setdiscovery: group constraint entity %q occurs in no set", pair[0])
		}
		thenID, ok := c.c.Dict().Lookup(pair[1])
		if !ok {
			return nil, fmt.Errorf("setdiscovery: group constraint entity %q occurs in no set", pair[1])
		}
		constraints = append(constraints, grouptest.Constraint{If: ifID, Then: thenID})
	}
	return grouptest.New(cfg.groupStrategy, constraints)
}

// engineOptions maps a configuration to the engine options of one session
// or batch; it is the one place they are built. A group configuration gets
// its group strategy (group selections bypass the entity-keyed selection
// memo), an entity configuration a strategy instance freshly minted from the
// collection's shared factory and the collection's selection memo.
func (c *Collection) engineOptions(cfg config) (discovery.Options, error) {
	o := discovery.Options{
		MaxQuestions:  cfg.maxQuestions,
		BatchSize:     cfg.batchSize,
		Backtrack:     cfg.backtrack,
		ConfirmTarget: cfg.confirm,
	}
	if cfg.groupStrategy != "" {
		g, err := c.groupStrategy(cfg)
		if err != nil {
			return discovery.Options{}, err
		}
		o.Group = g
		return o, nil
	}
	f, err := c.factory(cfg)
	if err != nil {
		return discovery.Options{}, err
	}
	o.Strategy = f.New()
	o.Memo = c.selectionMemo(cfg.cacheBound)
	o.MemoAux = memoAux(cfg)
	return o, nil
}

// selectionMemo returns the collection-wide selection memo, creating it on
// first use with the given entry bound (≤ 0 selects cache.DefaultBound). The
// bound is fixed at creation: later callers share the memo whatever bound
// they ask for, mirroring how a strategy factory's cache bound is fixed by
// its first configuration.
func (c *Collection) selectionMemo(bound int) *discovery.SelectionMemo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memo == nil {
		c.memo = discovery.NewSelectionMemo(bound)
	}
	return c.memo
}

// memoAux hashes the options that change what a selection returns — strategy
// identity and parameters plus the interaction batch size — into the
// auxiliary key word, so sessions share a memo entry exactly when they would
// compute the same result. Halting and backtracking options are deliberately
// absent: they decide when selections happen, never what they return.
func memoAux(cfg config) uint64 {
	batch := cfg.batchSize
	if batch < 1 {
		batch = 1 // 0 and 1 both mean one question per interaction
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d",
		strings.ToLower(cfg.strategyName), cfg.metric, cfg.k, cfg.q, batch)
	return h.Sum64()
}

// SelectionCacheStats reports the collection-wide selection memo's
// effectiveness: how many selections were served from the memo (Hits) or
// coalesced onto a concurrent computation versus actually computed, and how
// the bounded store is doing (Entries, Evictions). Every entity session,
// batch member and Discover call selects through the memo; group sessions
// do not. All zero until the memo exists: the first entity session, batch,
// Discover call, or warm-shard export or import over the collection creates
// it.
type SelectionCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Coalesced int64
	Computed  int64
	Entries   int
}

// SelectionCacheStats returns the collection's selection-memo counters.
func (c *Collection) SelectionCacheStats() SelectionCacheStats {
	c.mu.Lock()
	m := c.memo
	c.mu.Unlock()
	if m == nil {
		return SelectionCacheStats{}
	}
	st := m.Stats()
	return SelectionCacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Coalesced: st.Coalesced,
		Computed:  st.Computed,
		Entries:   st.Entries,
	}
}

// ExportSelectionCache writes a warm shard — up to max of the selection
// memo's entries, in no particular order (max ≤ 0 exports everything) — in a
// versioned binary format guarded by the collection's content fingerprint.
// Import it with ImportSelectionCache on another instance serving the same
// collection (the router does this to warm a freshly added engine from a
// healthy peer) or persist it next to prebuilt trees so a restarted server
// skips the warm-up cliff. Options are applied only for their cache bound,
// should the export be what creates the memo.
func (c *Collection) ExportSelectionCache(w io.Writer, max int, opts ...Option) error {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	_, err := w.Write(discovery.EncodeMemoShard(c.c, c.selectionMemo(cfg.cacheBound), max))
	return err
}

// ImportSelectionCache merges a shard written by ExportSelectionCache into
// the collection's selection memo and returns the number of entries
// imported. The shard must come from a collection with identical content;
// foreign or corrupted shards are rejected with ErrBadSnapshot. An entry's
// entities cannot be checked against the state its key hashes, so entries
// are trusted as given: every session reaching that state is asked them.
// Import shards only from instances you run, never from clients. Options are
// applied only for their cache bound, which matters when the import is what
// creates the memo (a freshly added engine being warmed before any traffic).
func (c *Collection) ImportSelectionCache(r io.Reader, opts ...Option) (int, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	n, err := discovery.DecodeMemoShard(c.c, c.selectionMemo(cfg.cacheBound), data)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return n, nil
}

// NewCollection builds a collection from named element lists. Set names
// must be distinct map keys; duplicate sets (same elements under different
// names) are rejected, matching the paper's uniqueness assumption. Iteration
// order does not matter: sets are added in sorted-name order, so the same
// input always produces the same collection.
func NewCollection(sets map[string][]string) (*Collection, error) {
	if len(sets) == 0 {
		return nil, errors.New("setdiscovery: empty collection")
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	b := dataset.NewBuilder()
	for _, name := range names {
		b.Add(name, sets[name])
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Collection{c: c}, nil
}

// ReadCollection parses the tab-separated text format (one set per line:
// name, then elements; '#' comments allowed). Duplicate sets are dropped.
func ReadCollection(r io.Reader) (*Collection, error) {
	c, err := dataset.ReadText(r)
	if err != nil {
		return nil, err
	}
	return &Collection{c: c}, nil
}

// Write writes the collection in the text format.
func (c *Collection) Write(w io.Writer) error { return c.c.WriteText(w) }

// Len returns the number of sets.
func (c *Collection) Len() int { return c.c.Len() }

// Names returns the set names in collection order.
func (c *Collection) Names() []string {
	out := make([]string, c.c.Len())
	for i, s := range c.c.Sets() {
		out[i] = s.Name
	}
	return out
}

// Elements returns the sorted elements of the named set, or nil if absent.
func (c *Collection) Elements(name string) []string {
	s := c.c.FindByName(name)
	if s == nil {
		return nil
	}
	out := make([]string, len(s.Elems))
	for i, e := range s.Elems {
		out[i] = c.c.EntityName(e)
	}
	return out
}

// Internal exposes the underlying dataset collection for advanced use with
// the internal packages (benchmarks, experiment harness).
func (c *Collection) Internal() *dataset.Collection { return c.c }

// config collects option values.
type config struct {
	strategyName string
	metric       Metric
	k, q         int
	maxQuestions int
	batchSize    int
	parallelism  int
	cacheBound   int
	backtrack    bool
	confirm      bool

	// groupStrategy switches sessions to set-valued (group-testing)
	// questions; empty selects the classic entity-question mode.
	// groupConstraints are "if implies then" entity-name pairs honoured by
	// the additive strategy.
	groupStrategy    string
	groupConstraints [][2]string
}

func defaultConfig() config {
	return config{strategyName: "klp", metric: AverageDepth, k: 2, q: 10}
}

// Option configures BuildTree and Discover.
type Option func(*config)

// WithStrategy selects the entity-selection strategy by name: "klp"
// (default), "klple", "klplve", "infogain", "most-even", "indg", "lb1",
// "gaink".
func WithStrategy(name string) Option { return func(c *config) { c.strategyName = name } }

// WithMetric selects the cost metric for the lookahead strategies
// (default AverageDepth).
func WithMetric(m Metric) Option { return func(c *config) { c.metric = m } }

// WithK sets the lookahead depth (default 2).
func WithK(k int) Option { return func(c *config) { c.k = k } }

// WithQ bounds the candidate entities per lookahead step for k-LPLE /
// k-LPLVE (default 10).
func WithQ(q int) Option { return func(c *config) { c.q = q } }

// WithMaxQuestions halts discovery after n questions (default unlimited).
func WithMaxQuestions(n int) Option { return func(c *config) { c.maxQuestions = n } }

// WithBatchSize asks several membership questions per interaction (§6
// multiple-choice examples).
func WithBatchSize(n int) Option { return func(c *config) { c.batchSize = n } }

// WithBacktracking enables recovery from wrong answers: the discovered set
// is confirmed with the oracle and rejections revisit earlier answers (§6).
func WithBacktracking() Option {
	return func(c *config) { c.backtrack = true; c.confirm = true }
}

// WithParallelism bounds the worker pool of BuildTree at n goroutines
// (default GOMAXPROCS; 1 forces the sequential build). The built tree is
// identical for every n. Discovery ignores the option — an interactive
// session asks one question at a time.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithCacheBound caps the strategy's shared lookahead cache at
// (approximately) n entries: a new entry arriving at a full cache shard
// evicts an arbitrary entry of that shard. Every cache is bounded: n ≤ 0,
// like leaving the option out, means the default of 1,048,576 entries.
// Sessions and builds over one collection with equal options — including
// the bound — share one factory, so the cap is per-configuration, not
// per-session. The bound also caps the collection's selection memo when its
// first user creates it. Evicted entries are recomputed, never wrong:
// selections are identical under every bound. setdiscd exposes it as
// -cache-bound.
func WithCacheBound(n int) Option {
	return func(c *config) {
		// Normalised so every spelling of the default shares one factory key.
		if n <= 0 || n == cache.DefaultBound {
			n = 0
		}
		c.cacheBound = n
	}
}

// WithGroupStrategy switches Discover, NewSession and NewBatch to
// set-valued (group-testing) questions: every interaction asks about a
// *subset* of entities — "does your set share an entity with S?"
// (intersects) or "is S contained in your set?" (subset-of) — and an answer
// halves the candidate space, the interaction shape of software bisection
// and contaminated-pool screening. Recognised names: "halving" (greedy
// even-split subsets, ~⌈log₂ n⌉ rounds to a single target) and "additive"
// (bisect-style multi-culprit search honouring WithGroupConstraint
// dependencies). Group sessions ignore WithStrategy, WithMetric, WithK,
// WithQ and WithBatchSize, and select without the selection memo; the
// oracle must implement GroupOracle. The empty name restores the default
// entity-question mode.
func WithGroupStrategy(name string) Option {
	return func(c *config) { c.groupStrategy = name }
}

// WithGroupConstraint records the dependency "ifEntity implies thenEntity":
// any realisable set containing ifEntity also contains thenEntity (enabling
// a module enables what it depends on). The additive group strategy keeps
// its probes closed under these constraints; other strategies ignore them.
// Repeat the option for multiple constraints.
func WithGroupConstraint(ifEntity, thenEntity string) Option {
	return func(c *config) {
		c.groupConstraints = append(c.groupConstraints, [2]string{ifEntity, thenEntity})
	}
}

// Tree is a constructed decision tree over a collection. It is immutable
// and safe for concurrent use: any number of goroutines may walk one shared
// Tree via DiscoverWithTree or the read accessors, or run sessions from it.
type Tree struct {
	t *tree.Tree
	c *Collection

	// cfg holds the selection options the tree was built with (strategy,
	// metric, k, q, cache bound); its sessions run under them.
	cfg config
}

// BuildTree constructs a decision tree for the whole collection offline
// (Algorithm 3), for static collections queried repeatedly. Construction
// runs on a bounded worker pool (WithParallelism, default GOMAXPROCS) and
// is deterministic: every parallelism level yields the same tree. The tree
// records its selection options for Tree.NewSession; batch size, halting,
// backtracking and group options do not carry over.
func (c *Collection) BuildTree(opts ...Option) (*Tree, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	f, err := c.factory(cfg)
	if err != nil {
		return nil, err
	}
	t, err := tree.Build(c.c.All(), f, tree.WithParallelism(cfg.parallelism))
	if err != nil {
		return nil, err
	}
	sel := defaultConfig()
	sel.strategyName, sel.metric, sel.k, sel.q, sel.cacheBound = cfg.strategyName, cfg.metric, cfg.k, cfg.q, cfg.cacheBound
	return &Tree{t: t, c: c, cfg: sel}, nil
}

// Collection returns the collection the tree was built over.
func (t *Tree) Collection() *Collection { return t.c }

// AvgDepth returns the expected number of questions under uniform targets.
func (t *Tree) AvgDepth() float64 { return t.t.AvgDepth() }

// Height returns the worst-case number of questions.
func (t *Tree) Height() int { return t.t.Height() }

// QuestionsFor returns how many questions the tree asks to reach the named
// set, or -1 when the set is not in the collection.
func (t *Tree) QuestionsFor(name string) int {
	s := t.c.c.FindByName(name)
	if s == nil {
		return -1
	}
	return t.t.Depth(s.Index)
}

// Render returns an indented text rendering of the tree.
func (t *Tree) Render() string { return t.t.Render(t.c.c) }

// WriteDOT writes the tree in Graphviz DOT format.
func (t *Tree) WriteDOT(w io.Writer) error { return t.t.WriteDOT(w, t.c.c) }

// WriteBinary persists the tree so later sessions over the same collection
// can skip construction (the paper's offline mode, §4.5).
func (t *Tree) WriteBinary(w io.Writer) error { return t.t.WriteBinary(w) }

// LoadTree reads a tree persisted with Tree.WriteBinary and re-validates it
// against this collection. The binary format stores no options, so the
// loaded tree records the defaults (k-LP, AverageDepth, k=2, q=10, the
// default cache bound): Tree.NewSession asks the tree's questions only if
// it was built under them. DiscoverWithTree walks any loaded tree as
// persisted.
func (c *Collection) LoadTree(r io.Reader) (*Tree, error) {
	t, err := tree.ReadBinary(r, c.c)
	if err != nil {
		return nil, err
	}
	return &Tree{t: t, c: c, cfg: defaultConfig()}, nil
}

// DiscoverWithTree runs discovery along a precomputed tree: each step only
// follows one branch, so per-question latency is constant. "Don't know"
// answers stop the walk with the remaining subtree as candidates.
func (c *Collection) DiscoverWithTree(t *Tree, oracle Oracle) (*Result, error) {
	res, err := discovery.FollowTree(c.c, t.t, oracleAdapter{c: c.c, o: oracle})
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// Answer is a reply to a membership question.
type Answer = discovery.Answer

const (
	// No: the entity is not in the target set.
	No = discovery.No
	// Yes: the entity is in the target set.
	Yes = discovery.Yes
	// Unknown: the user cannot tell; the entity is never asked again.
	Unknown = discovery.Unknown
)

// Oracle answers membership questions about string entities.
type Oracle interface {
	Answer(entity string) Answer
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(entity string) Answer

// Answer implements Oracle.
func (f OracleFunc) Answer(entity string) Answer { return f(entity) }

// TargetOracle returns an oracle that answers truthfully for the named set —
// useful for simulations and tests. It fails when the set is unknown. The
// oracle also implements Confirmer, accepting only the named set, so that
// WithBacktracking sessions driven by it actually exercise the §6
// confirm-and-recover step instead of silently accepting any candidate.
func (c *Collection) TargetOracle(name string) (Oracle, error) {
	s := c.c.FindByName(name)
	if s == nil {
		return nil, fmt.Errorf("setdiscovery: no set named %q", name)
	}
	return targetOracle{c: c.c, s: s}, nil
}

// targetOracle is the truthful simulated user behind Collection.TargetOracle.
type targetOracle struct {
	c *dataset.Collection
	s *dataset.Set
}

// Answer implements Oracle.
func (o targetOracle) Answer(entity string) Answer {
	id, ok := o.c.Dict().Lookup(entity)
	if !ok {
		return No
	}
	if o.s.Contains(id) {
		return Yes
	}
	return No
}

// Confirm implements Confirmer: only the oracle's own set is accepted (set
// names are unique within a collection), mirroring discovery.TargetOracle.
func (o targetOracle) Confirm(setName string) bool { return setName == o.s.Name }

// AnswerSubset implements GroupOracle truthfully: under "intersects" the
// answer is Yes when any member is in the target set, under "subset-of" when
// every member is. Unknown entity names and unknown semantics are treated as
// names the target cannot contain.
func (o targetOracle) AnswerSubset(members []string, semantics string) Answer {
	sem, err := grouptest.ParseSemantics(semantics)
	if err != nil {
		sem = grouptest.SubsetOfTarget // unknown semantics: strictest reading
	}
	for _, name := range members {
		id, ok := o.c.Dict().Lookup(name)
		contains := ok && o.s.Contains(id)
		if sem == grouptest.Intersects && contains {
			return Yes
		}
		if sem == grouptest.SubsetOfTarget && !contains {
			return No
		}
	}
	if sem == grouptest.Intersects {
		return No
	}
	return Yes
}

// Result reports a discovery run.
type Result struct {
	// Target is the uniquely discovered set name, empty when discovery
	// halted with several candidates.
	Target string
	// Candidates are the set names still consistent with all answers.
	Candidates []string
	// Questions is the number of membership questions answered.
	Questions int
	// Interactions counts user round-trips (differs from Questions when
	// batching).
	Interactions int
	// Backtracks counts answer revisions during error recovery.
	Backtracks int
	// SelectionTime is the computation time spent choosing questions.
	SelectionTime time.Duration
}

// ErrNoCandidates is returned when no set contains all initial examples.
var ErrNoCandidates = discovery.ErrNoCandidates

// ErrContradiction is returned when answers rule out every set and
// backtracking is off or exhausted.
var ErrContradiction = discovery.ErrContradiction

// Discover runs the interactive loop (Algorithm 2): filter the collection
// to supersets of the initial examples, then ask the oracle
// strategy-selected membership questions until one candidate remains or a
// halt condition fires. Unknown initial examples yield ErrNoCandidates
// (no set can contain them).
func (c *Collection) Discover(initial []string, oracle Oracle, opts ...Option) (*Result, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	// Each session owns a strategy instance; instances from one factory
	// share the concurrency-safe lookahead cache, so concurrent sessions
	// are race-free yet amortise each other's selection work.
	o, err := c.engineOptions(cfg)
	if err != nil {
		return nil, err
	}
	init, err := c.lookupInitial(initial)
	if err != nil {
		return nil, err
	}
	res, err := discovery.Run(c.c, init, c.wrapOracle(oracle), o)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// lookupInitial resolves initial example names to entity IDs; an unknown
// name yields ErrNoCandidates (no set can contain it).
func (c *Collection) lookupInitial(initial []string) ([]dataset.Entity, error) {
	init := make([]dataset.Entity, 0, len(initial))
	for _, s := range initial {
		id, ok := c.c.Dict().Lookup(s)
		if !ok {
			return nil, fmt.Errorf("%w: entity %q occurs in no set", ErrNoCandidates, s)
		}
		init = append(init, id)
	}
	return init, nil
}

// convertResult maps an internal discovery result to the public shape.
func convertResult(res *discovery.Result) *Result {
	out := &Result{
		Candidates:    res.Candidates.Names(),
		Questions:     res.Questions,
		Interactions:  res.Interactions,
		Backtracks:    res.Backtracks,
		SelectionTime: res.SelectionTime,
	}
	if res.Target != nil {
		out.Target = res.Target.Name
	}
	return out
}

// GroupOracle answers set-valued questions (WithGroupStrategy sessions):
// semantics is "intersects" ("does your set share at least one of members?")
// or "subset-of" ("is every member in your set?"). Discover with a group
// strategy requires its oracle to implement this interface.
type GroupOracle interface {
	Oracle
	AnswerSubset(members []string, semantics string) Answer
}

// wrapOracle bridges a public oracle to the engine, forwarding the group
// capability only when the caller's oracle actually has it — so the engine's
// "group session requires a GroupOracle" check reflects the real oracle.
func (c *Collection) wrapOracle(o Oracle) discovery.Oracle {
	base := oracleAdapter{c: c.c, o: o}
	if g, ok := o.(GroupOracle); ok {
		return groupOracleAdapter{oracleAdapter: base, g: g}
	}
	return base
}

// oracleAdapter bridges string oracles to entity-ID oracles, forwarding the
// optional confirmation capability.
type oracleAdapter struct {
	c *dataset.Collection
	o Oracle
}

func (a oracleAdapter) Answer(e dataset.Entity) discovery.Answer {
	return a.o.Answer(a.c.EntityName(e))
}

// Confirmer mirrors discovery.Confirmer for string oracles.
type Confirmer interface {
	Confirm(setName string) bool
}

// Confirm implements discovery.Confirmer when the wrapped oracle supports
// confirmation; otherwise every set is accepted.
func (a oracleAdapter) Confirm(s *dataset.Set) bool {
	if c, ok := a.o.(Confirmer); ok {
		return c.Confirm(s.Name)
	}
	return true
}

// groupOracleAdapter additionally bridges the set-valued question
// capability: entity IDs become names, semantics its wire string.
type groupOracleAdapter struct {
	oracleAdapter
	g GroupOracle
}

// AnswerSubset implements discovery.GroupOracle.
func (a groupOracleAdapter) AnswerSubset(members []dataset.Entity, sem grouptest.Semantics) discovery.Answer {
	names := make([]string, len(members))
	for i, e := range members {
		names[i] = a.c.EntityName(e)
	}
	return a.g.AnswerSubset(names, sem.String())
}
