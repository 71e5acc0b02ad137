// Package tree implements decision trees over collections of sets: offline
// construction (Algorithm 3) with an optionally parallel builder, cost
// evaluation under the AD and H metrics, structural validation of the §3
// invariants, and rendering.
//
// A constructed Tree is immutable and safe for any number of concurrent
// readers: Follow, Depth, Render, the cost accessors and discovery.FollowTree
// all operate without mutation.
package tree

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"setdiscovery/internal/bitset"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
)

// Node is a decision-tree node. Internal nodes carry the membership question
// "is Entity in the target set?"; Yes is taken when the answer is yes. A
// leaf carries the discovered Set and has no children.
type Node struct {
	Entity  dataset.Entity
	Set     *dataset.Set
	Yes, No *Node
}

// Leaf reports whether n is a leaf.
func (n *Node) Leaf() bool { return n.Set != nil }

// Tree is a full binary decision tree whose leaves are the member sets of
// the sub-collection it was built from.
type Tree struct {
	Root   *Node
	Leaves int // number of leaves (= sets represented)
}

// BuildOption configures Build.
type BuildOption func(*buildConfig)

type buildConfig struct {
	workers int
	pool    *bitset.Pool
}

// WithParallelism bounds the worker pool of Build at n goroutines. n ≤ 0
// selects the default, GOMAXPROCS; n = 1 forces the sequential build. The
// built tree is identical for every n (see Build).
func WithParallelism(n int) BuildOption {
	return func(c *buildConfig) { c.workers = n }
}

// withSharedPool injects the bitset pool the build draws from, so tests
// can assert every pooled bitset is returned once the tree is built.
func withSharedPool(p *bitset.Pool) BuildOption {
	return func(c *buildConfig) { c.pool = p }
}

// Build runs Algorithm 3: construct a decision tree for the sub-collection
// sub, drawing per-worker entity-selection strategies from f. It fails if
// the strategy cannot propose an entity for a sub-collection of ≥ 2 sets
// (which cannot happen for collections of unique sets) or if a proposed
// entity does not split the sub-collection.
//
// Build projects sub once onto a compact view (dataset.Subset.Project),
// builds the whole tree on it and releases it when it returns: every
// split walks the view's posting lists over ⌈n/64⌉-word bitsets, and
// every Select receives a subset of the view, so a strategy that projects
// its root projects it from the view's few local IDs rather than from the
// collection. The view costs O(elements of sub) for the length of the
// build, a whole-collection build included. The tree itself holds global
// entities and sets: each node's pick and each leaf are mapped back to sub's
// collection.
//
// By default the Yes/No recursion fans out over a pool of GOMAXPROCS
// workers (bound it with WithParallelism). Each forked branch mints its
// own strategy sibling from f and its own partition scratch over the
// build's bitset pool. Neither is an arena: a sibling copies f's
// configuration and borrows its selection scratch from f's lineage for
// each Select, so a fork allocates a few small headers however many nodes
// fork. The output is deterministic —
// byte-identical to the sequential build — because each node's selection
// depends only on its own sub-collection: strategies from one factory share
// a memo cache, but every cached value is exact or a certified bound, so a
// cache hit can change how much work a selection does, never its result.
func Build(sub *dataset.Subset, f strategy.Factory, opts ...BuildOption) (*Tree, error) {
	if sub.Size() == 0 {
		return nil, fmt.Errorf("tree: cannot build over an empty sub-collection")
	}
	cfg := buildConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	b := &builder{factory: f}
	if cfg.workers > 1 {
		// The calling goroutine is worker zero; the semaphore admits the
		// extra ones.
		b.sem = make(chan struct{}, cfg.workers-1)
	}
	// One concurrency-safe bitset pool is shared by every worker's scratch,
	// so bitsets freed by one worker serve another's next partition; each
	// subset is still created and released by the same goroutine (the
	// parent releases after joining its fork). The build reaches an
	// allocation-free steady state bounded by tree depth × workers instead
	// of churning two bitsets per node visit.
	b.pool = cfg.pool
	if b.pool == nil {
		b.pool = bitset.NewPool()
	}
	// The calling goroutine's scratch holds the view; its partitions do not
	// touch it, and the workers only read it.
	sc := dataset.NewScratchWithPool(b.pool)
	view := sub.Project(sc)
	root, err := b.build(view, f.New(), sc)
	view.Release()
	if err != nil {
		return nil, err
	}
	return &Tree{Root: root, Leaves: sub.Size()}, nil
}

// builder carries the shared state of one Build call: the strategy factory,
// the token semaphore bounding extra worker goroutines (nil when the build
// is sequential), and the shared bitset pool behind the forks' partition
// scratches.
type builder struct {
	factory strategy.Factory
	sem     chan struct{}
	pool    *bitset.Pool
}

// build constructs the subtree for sub, a subset of the build's view. sel
// and sc are owned by the calling goroutine; when a branch is forked off,
// the new goroutine mints its own sibling strategy from the factory and its
// own partition scratch over the shared pool. Both are small: a sibling
// copies its factory's configuration and borrows its selection scratch
// per Select, and the partition scratch draws its bitsets from the shared
// pool. sub is owned by the caller; the two
// partition subsets created here are released once both children are
// materialised, so steady-state construction reuses a depth-bounded set of
// bitsets. Nodes store the global entity and leaves the global set.
func (b *builder) build(sub *dataset.Subset, sel strategy.Strategy, sc *dataset.Scratch) (*Node, error) {
	// Lines 1–3: a singleton collection is a leaf.
	if sub.Size() == 1 {
		return &Node{Set: sub.GlobalSet(sub.Single().Index)}, nil
	}
	// Line 5: pick the question.
	e, ok := sel.Select(sub)
	if !ok {
		return nil, fmt.Errorf("tree: strategy %s found no informative entity for %d sets",
			sel.Name(), sub.Size())
	}
	// Lines 6–7: split.
	with, without := sub.PartitionScratch(e, sc)
	if with.Size() == 0 || without.Size() == 0 {
		with.Release()
		without.Release()
		return nil, fmt.Errorf("tree: strategy %s proposed non-splitting entity %d",
			sel.Name(), sub.GlobalEntity(e))
	}
	e = sub.GlobalEntity(e)
	// Lines 8–10: recurse. If a worker token is free, the Yes branch runs on
	// its own goroutine while this one continues with the No branch;
	// otherwise both run inline. The fork-join is structured — the parent
	// always waits for its forked child — so errors propagate, no goroutine
	// outlives Build, and the parent can safely recycle both partition
	// subsets after the join.
	if b.sem != nil {
		select {
		case b.sem <- struct{}{}:
			var yes *Node
			var yerr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				yes, yerr = b.build(with, b.factory.New(), dataset.NewScratchWithPool(b.pool))
				<-b.sem
			}()
			no, nerr := b.build(without, sel, sc)
			<-done
			with.Release()
			without.Release()
			if yerr != nil {
				return nil, yerr
			}
			if nerr != nil {
				return nil, nerr
			}
			return &Node{Entity: e, Yes: yes, No: no}, nil
		default:
		}
	}
	yes, err := b.build(with, sel, sc)
	if err != nil {
		with.Release()
		without.Release()
		return nil, err
	}
	no, err := b.build(without, sel, sc)
	with.Release()
	without.Release()
	if err != nil {
		return nil, err
	}
	return &Node{Entity: e, Yes: yes, No: no}, nil
}

// Height returns the depth of the deepest leaf — the worst-case number of
// questions (metric H). A single-leaf tree has height 0.
func (t *Tree) Height() int {
	return height(t.Root)
}

func height(n *Node) int {
	if n.Leaf() {
		return 0
	}
	hy, hn := height(n.Yes), height(n.No)
	if hy > hn {
		return hy + 1
	}
	return hn + 1
}

// SumDepths returns the total depth over all leaves (the scaled AD cost).
func (t *Tree) SumDepths() int64 {
	return sumDepths(t.Root, 0)
}

func sumDepths(n *Node, depth int64) int64 {
	if n.Leaf() {
		return depth
	}
	return sumDepths(n.Yes, depth+1) + sumDepths(n.No, depth+1)
}

// AvgDepth returns the average leaf depth — the expected number of
// questions when targets are uniform (metric AD, Definition 3.2).
func (t *Tree) AvgDepth() float64 {
	return float64(t.SumDepths()) / float64(t.Leaves)
}

// Cost returns the tree's cost under metric m in paper units.
func (t *Tree) Cost(m cost.Metric) float64 {
	if m == cost.AD {
		return t.AvgDepth()
	}
	return float64(t.Height())
}

// ScaledCost returns the tree's cost as a scaled cost.Value (sum of depths
// for AD, height for H), comparable against the package cost lower bounds.
func (t *Tree) ScaledCost(m cost.Metric) cost.Value {
	if m == cost.AD {
		return t.SumDepths()
	}
	return cost.Value(t.Height())
}

// InternalNodes counts the internal (question) nodes; a full binary tree
// over n leaves has exactly n−1.
func (t *Tree) InternalNodes() int {
	return countInternal(t.Root)
}

func countInternal(n *Node) int {
	if n.Leaf() {
		return 0
	}
	return 1 + countInternal(n.Yes) + countInternal(n.No)
}

// Depth returns the depth of the leaf holding the set with the given index,
// or -1 when the set is not in the tree.
func (t *Tree) Depth(setIndex int) int {
	return depthOf(t.Root, setIndex, 0)
}

func depthOf(n *Node, setIndex, d int) int {
	if n.Leaf() {
		if n.Set.Index == setIndex {
			return d
		}
		return -1
	}
	if v := depthOf(n.Yes, setIndex, d+1); v >= 0 {
		return v
	}
	return depthOf(n.No, setIndex, d+1)
}

// Follow walks the tree answering each question with the membership of the
// question entity in target, returning the leaf reached and the number of
// questions asked. For a target that labels some leaf, the walk provably
// ends at that leaf (Validate checks this invariant).
func (t *Tree) Follow(target *dataset.Set) (*dataset.Set, int) {
	n := t.Root
	questions := 0
	for !n.Leaf() {
		questions++
		if target.Contains(n.Entity) {
			n = n.Yes
		} else {
			n = n.No
		}
	}
	return n.Set, questions
}

// Validate checks the §3 invariants of the tree against the sub-collection
// it was built from: the tree is full binary; its leaves are exactly the
// member sets, each appearing once; every internal node's entity genuinely
// splits the sets below it; and each branch holds exactly the sets
// consistent with its answer.
func (t *Tree) Validate(sub *dataset.Subset) error {
	if err := validate(t.Root, sub); err != nil {
		return err
	}
	if t.Leaves != sub.Size() {
		return fmt.Errorf("tree: Leaves = %d but sub-collection has %d sets",
			t.Leaves, sub.Size())
	}
	if internal := t.InternalNodes(); internal != t.Leaves-1 {
		return fmt.Errorf("tree: %d internal nodes for %d leaves; full binary tree requires %d",
			internal, t.Leaves, t.Leaves-1)
	}
	return nil
}

func validate(n *Node, sub *dataset.Subset) error {
	if n.Leaf() {
		if sub.Size() != 1 {
			return fmt.Errorf("tree: leaf %q reached with %d candidate sets", n.Set.Name, sub.Size())
		}
		if only := sub.Single(); only != n.Set {
			return fmt.Errorf("tree: leaf holds %q but candidates resolve to %q", n.Set.Name, only.Name)
		}
		return nil
	}
	if n.Yes == nil || n.No == nil {
		return fmt.Errorf("tree: internal node on entity %d lacks a child", n.Entity)
	}
	with, without := sub.Partition(n.Entity)
	if with.Size() == 0 || without.Size() == 0 {
		return fmt.Errorf("tree: entity %d does not split %d sets", n.Entity, sub.Size())
	}
	if err := validate(n.Yes, with); err != nil {
		return err
	}
	return validate(n.No, without)
}

// WriteDOT renders the tree in Graphviz DOT form; c supplies entity names.
func (t *Tree) WriteDOT(w io.Writer, c *dataset.Collection) error {
	var b strings.Builder
	b.WriteString("digraph decisiontree {\n  node [shape=box];\n")
	id := 0
	var emit func(n *Node) int
	emit = func(n *Node) int {
		my := id
		id++
		if n.Leaf() {
			fmt.Fprintf(&b, "  n%d [label=%q, shape=ellipse];\n", my, n.Set.Name)
			return my
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", my, c.EntityName(n.Entity)+"?")
		y := emit(n.Yes)
		nn := emit(n.No)
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"yes\"];\n", my, y)
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"no\"];\n", my, nn)
		return my
	}
	emit(t.Root)
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Render returns a compact indented text rendering, for examples and
// debugging.
func (t *Tree) Render(c *dataset.Collection) string {
	var b strings.Builder
	var walk func(n *Node, prefix, branch string)
	walk = func(n *Node, prefix, branch string) {
		if n.Leaf() {
			fmt.Fprintf(&b, "%s%s[%s]\n", prefix, branch, n.Set.Name)
			return
		}
		fmt.Fprintf(&b, "%s%s%s?\n", prefix, branch, c.EntityName(n.Entity))
		walk(n.Yes, prefix+"  ", "y: ")
		walk(n.No, prefix+"  ", "n: ")
	}
	walk(t.Root, "", "")
	return b.String()
}
