// Package dataset defines the problem model of interactive set discovery
// (§3 of the paper): a Collection of unique finite sets drawn from a universe
// of entities, and Subsets (sub-collections) of it that arise while a
// decision tree narrows down candidates.
//
// Sets are stored as sorted entity-ID slices; the collection keeps an
// inverted index (entity -> posting list of set indexes) so that
// partitioning a sub-collection by an entity and filtering candidate
// supersets of an initial example set are cheap.
package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"setdiscovery/internal/intern"
	"setdiscovery/internal/setops"
)

// Entity is an interned entity identifier (dense, starting at 0).
type Entity = uint32

// Set is one candidate set of a collection.
type Set struct {
	Index int      // position within the collection
	Name  string   // user-facing label (query name, table caption, ...)
	Elems []Entity // strictly increasing entity IDs
}

// Contains reports whether the set contains entity e.
func (s *Set) Contains(e Entity) bool { return setops.Contains(s.Elems, e) }

// Len returns the number of elements of the set.
func (s *Set) Len() int { return len(s.Elems) }

// Collection is an immutable collection of unique sets (§3). Build one with
// a Builder or FromIDSets. It is laid out in a few flat arrays (see build)
// and keeps no slice or buffer of its input.
type Collection struct {
	sets        []*Set       // pointers into one []Set
	dict        *intern.Dict // nil when built from raw IDs
	numEntities int
	postings    [][]uint32 // entity -> sorted set indexes containing it

	// fpOnce/fp lazily cache ContentFingerprint; the collection is immutable
	// after build, so one computation serves every snapshot guard.
	fpOnce sync.Once
	fp     Fingerprint

	// view is non-nil when the collection is the compact view of a
	// sub-collection of another one (see Subset.Project).
	view *view
}

// ErrDuplicateSet is reported by Builder.Build when two sets have identical
// elements and duplicate dropping was not requested. The paper assumes
// duplicates are removed up front ("Without loss of generality, we assume
// the sets are all unique").
var ErrDuplicateSet = errors.New("dataset: duplicate set in collection")

// Builder accumulates named string sets and produces a Collection.
type Builder struct {
	dict           *intern.Dict
	list           setList
	dropDuplicates bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{dict: intern.NewDict()}
}

// DropDuplicates makes Build silently keep only the first of any group of
// identical sets instead of failing.
func (b *Builder) DropDuplicates() *Builder {
	b.dropDuplicates = true
	return b
}

// Add appends a named set given by its element strings. Duplicate elements
// within one set are merged.
func (b *Builder) Add(name string, elements []string) *Builder {
	b.list.elems = append(b.list.elems, b.dict.InternAll(elements)...)
	b.list.end(name)
	return b
}

// Len reports how many sets have been added so far.
func (b *Builder) Len() int { return len(b.list.names) }

// Build validates and freezes the collection. Empty sets are rejected; the
// membership question "is e in the target?" can never distinguish an empty
// set, and the paper's model has no use for them.
func (b *Builder) Build() (*Collection, error) {
	return build(&b.list, b.dict, b.dict.Len(), b.dropDuplicates)
}

// FromIDSets builds a collection directly from entity-ID element slices
// (used when the entities already are dense integers, e.g. tuple row
// numbers). Element slices may be unsorted and contain duplicates. The
// collection normalizes copies of them: it neither changes nor keeps the
// caller's slices. numEntities must exceed every referenced ID.
func FromIDSets(names []string, elems [][]Entity, numEntities int, dropDuplicates bool) (*Collection, error) {
	if len(names) != len(elems) {
		return nil, fmt.Errorf("dataset: %d names but %d element lists", len(names), len(elems))
	}
	total := 0
	for _, e := range elems {
		total += len(e)
	}
	l := setList{elems: make([]Entity, 0, total)}
	for i, e := range elems {
		l.elems = append(l.elems, e...)
		l.end(names[i])
	}
	return build(&l, nil, numEntities, dropDuplicates)
}

// setList holds sets on their way into build: set i is named names[i], and
// its normalized elements lie in elems up to ends[i], right after those of
// set i−1, so the list grows by append without a slice per set.
type setList struct {
	names []string
	elems []Entity
	ends  []int
}

// end closes a set: it normalizes, in place, the elements appended to
// l.elems since the previous set ended, and names the set.
func (l *setList) end(name string) {
	start := l.start(len(l.names))
	l.elems = l.elems[:start+len(setops.Normalize(l.elems[start:]))]
	l.names = append(l.names, name)
	l.ends = append(l.ends, len(l.elems))
}

func (l *setList) start(i int) int {
	if i == 0 {
		return 0
	}
	return l.ends[i-1]
}

// set returns the elements of set i.
func (l *setList) set(i int) []Entity { return l.elems[l.start(i):l.ends[i]] }

// build validates the sets of l, drops or rejects duplicates, and lays the
// rest out in three flat arrays, copying everything it keeps so that no
// buffer of l stays referenced:
//
//   - one []Set, which c.sets points into;
//   - one arena of every set's elements, in set order;
//   - one arena of every posting list, in entity order.
//
// Each Set.Elems and each posting list is a sub-slice of its arena with
// cap == len, so an append to one copies it instead of overwriting its
// neighbour. Neither arena holds pointers, so the garbage collector never
// scans them. A counting pass sizes the posting lists before any is
// filled.
func build(l *setList, dict *intern.Dict, numEntities int, dropDuplicates bool) (*Collection, error) {
	// Duplicates are found by a hash of the elements: first maps a hash to
	// the first kept set with it, and a set whose hash is taken by a
	// different set probes the next hash value.
	kept := make([]int, 0, len(l.names))
	first := make(map[uint64]int, len(l.names))
	seed := maphash.MakeSeed()
	var key []byte
	total, maxUsed := 0, -1
	for i, name := range l.names {
		e := l.set(i)
		if len(e) == 0 {
			return nil, fmt.Errorf("dataset: set %q is empty", name)
		}
		if last := int(e[len(e)-1]); last >= numEntities {
			j, _ := slices.BinarySearch(e, Entity(max(numEntities, 0)))
			return nil, fmt.Errorf("dataset: set %q references entity %d beyond universe size %d",
				name, e[j], numEntities)
		}
		key = key[:0]
		for _, id := range e {
			key = binary.LittleEndian.AppendUint32(key, id)
		}
		dup := -1
		for h := maphash.Bytes(seed, key); ; h++ {
			j, taken := first[h]
			if !taken {
				first[h] = i
				break
			}
			if slices.Equal(l.set(j), e) {
				dup = j
				break
			}
		}
		if dup >= 0 {
			if dropDuplicates {
				continue
			}
			return nil, fmt.Errorf("%w: %q duplicates %q", ErrDuplicateSet, name, l.names[dup])
		}
		kept = append(kept, i)
		total += len(e)
		// The postings array is sized by the largest entity actually
		// used, not by the declared universe: numEntities is untrusted
		// metadata when a collection is deserialized, and sparse
		// universes are legal.
		maxUsed = max(maxUsed, int(e[len(e)-1]))
	}
	if len(kept) == 0 {
		return nil, errors.New("dataset: collection has no sets")
	}

	c := &Collection{
		sets:        make([]*Set, len(kept)),
		dict:        dict,
		numEntities: numEntities,
		postings:    make([][]uint32, maxUsed+1),
	}
	sets := make([]Set, len(kept))
	elems := make([]Entity, 0, total)
	counts := make([]int32, maxUsed+1)
	for i, j := range kept {
		start := len(elems)
		elems = append(elems, l.set(j)...)
		sets[i] = Set{Index: i, Name: l.names[j], Elems: elems[start:len(elems):len(elems)]}
		c.sets[i] = &sets[i]
		for _, e := range sets[i].Elems {
			counts[e]++
		}
	}
	postings, off := make([]uint32, total), 0
	for e, n := range counts {
		if n > 0 {
			c.postings[e] = postings[off : off : off+int(n)]
			off += int(n)
		}
	}
	// Filling in set order keeps every list sorted; each append stays
	// within the capacity its count reserved.
	for i := range sets {
		for _, e := range sets[i].Elems {
			c.postings[e] = append(c.postings[e], uint32(i))
		}
	}
	return c, nil
}

// Len returns the number of sets in the collection.
func (c *Collection) Len() int { return len(c.sets) }

// Set returns the i-th set.
func (c *Collection) Set(i int) *Set { return c.sets[i] }

// Sets returns all sets in index order. Callers must not modify the slice.
func (c *Collection) Sets() []*Set { return c.sets }

// NumEntities returns the size of the entity universe (max ID + 1 across the
// whole corpus the collection was built from; some IDs may be unused).
func (c *Collection) NumEntities() int { return c.numEntities }

// Dict returns the entity dictionary, or nil when the collection was built
// from raw IDs.
func (c *Collection) Dict() *intern.Dict { return c.dict }

// EntityName renders entity e for humans: the interned string when a
// dictionary is present, otherwise "#<id>".
func (c *Collection) EntityName(e Entity) string {
	if c.dict != nil {
		if s, ok := c.dict.StringOK(e); ok {
			return s
		}
	}
	return fmt.Sprintf("#%d", e)
}

// Postings returns the sorted indexes of sets containing e. Callers must not
// modify the slice.
func (c *Collection) Postings(e Entity) []uint32 {
	if int(e) >= len(c.postings) {
		return nil
	}
	return c.postings[e]
}

// DistinctEntities counts entities that occur in at least one set.
func (c *Collection) DistinctEntities() int {
	n := 0
	for _, p := range c.postings {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// Stats summarises the collection (used to regenerate Table 1).
type Stats struct {
	Sets             int
	DistinctEntities int
	MinSize, MaxSize int
	MeanSize         float64
	TotalElements    int
}

// Stats computes summary statistics over the collection.
func (c *Collection) Stats() Stats {
	st := Stats{Sets: len(c.sets), MinSize: int(^uint(0) >> 1)}
	for _, s := range c.sets {
		n := len(s.Elems)
		st.TotalElements += n
		if n < st.MinSize {
			st.MinSize = n
		}
		if n > st.MaxSize {
			st.MaxSize = n
		}
	}
	st.DistinctEntities = c.DistinctEntities()
	st.MeanSize = float64(st.TotalElements) / float64(len(c.sets))
	return st
}

// SupersetsOf returns the sub-collection of sets that contain every entity
// of initial (Algorithm 2, lines 2–4). An empty initial set selects the full
// collection.
func (c *Collection) SupersetsOf(initial []Entity) *Subset {
	if len(initial) == 0 {
		return c.All()
	}
	init := setops.Normalize(append([]Entity(nil), initial...))
	// Double-buffered IntersectInto: one allocation pair for the whole
	// filter instead of a fresh slice per initial entity.
	members := append([]uint32(nil), c.Postings(init[0])...)
	buf := make([]uint32, 0, len(members))
	for _, e := range init[1:] {
		buf = setops.IntersectInto(buf[:0], members, c.Postings(e))
		members, buf = buf, members
		if len(members) == 0 {
			break
		}
	}
	return c.SubsetOf(members)
}

// FindByName returns the first set with the given name, or nil.
func (c *Collection) FindByName(name string) *Set {
	for _, s := range c.sets {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// FindByElements returns the set whose elements equal elems (normalized), or
// nil.
func (c *Collection) FindByElements(elems []Entity) *Set {
	want := setops.Normalize(append([]Entity(nil), elems...))
	for _, s := range c.sets {
		if setops.Equal(s.Elems, want) {
			return s
		}
	}
	return nil
}
