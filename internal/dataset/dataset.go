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
	"errors"
	"fmt"
	"sort"
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
// a Builder or FromIDSets.
type Collection struct {
	sets        []*Set
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
	names          []string
	elems          [][]Entity
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
	ids := b.dict.InternAll(elements)
	b.names = append(b.names, name)
	b.elems = append(b.elems, setops.Normalize(ids))
	return b
}

// Len reports how many sets have been added so far.
func (b *Builder) Len() int { return len(b.names) }

// Build validates and freezes the collection. Empty sets are rejected; the
// membership question "is e in the target?" can never distinguish an empty
// set, and the paper's model has no use for them.
func (b *Builder) Build() (*Collection, error) {
	return build(b.names, b.elems, b.dict, b.dict.Len(), b.dropDuplicates)
}

// FromIDSets builds a collection directly from entity-ID element slices
// (used when the entities already are dense integers, e.g. tuple row
// numbers). Element slices may be unsorted and contain duplicates; they are
// normalized in place. numEntities must exceed every referenced ID.
func FromIDSets(names []string, elems [][]Entity, numEntities int, dropDuplicates bool) (*Collection, error) {
	norm := make([][]Entity, len(elems))
	for i, e := range elems {
		norm[i] = setops.Normalize(e)
	}
	return build(names, norm, nil, numEntities, dropDuplicates)
}

func build(names []string, elems [][]Entity, dict *intern.Dict, numEntities int, dropDuplicates bool) (*Collection, error) {
	if len(names) != len(elems) {
		return nil, fmt.Errorf("dataset: %d names but %d element lists", len(names), len(elems))
	}
	type rec struct {
		name  string
		elems []Entity
	}
	var recs []rec
	seen := make(map[string]string, len(elems)) // canonical key -> first name
	for i, e := range elems {
		if len(e) == 0 {
			return nil, fmt.Errorf("dataset: set %q is empty", names[i])
		}
		for _, id := range e {
			if int(id) >= numEntities {
				return nil, fmt.Errorf("dataset: set %q references entity %d beyond universe size %d",
					names[i], id, numEntities)
			}
		}
		key := string(elemKey(e))
		if first, dup := seen[key]; dup {
			if dropDuplicates {
				continue
			}
			return nil, fmt.Errorf("%w: %q duplicates %q", ErrDuplicateSet, names[i], first)
		}
		seen[key] = names[i]
		recs = append(recs, rec{names[i], e})
	}
	if len(recs) == 0 {
		return nil, errors.New("dataset: collection has no sets")
	}
	// The postings array is sized by the largest entity actually used, not
	// by the declared universe: numEntities is untrusted metadata when a
	// collection is deserialized, and sparse universes are legal.
	maxUsed := -1
	for _, r := range recs {
		if last := int(r.elems[len(r.elems)-1]); last > maxUsed {
			maxUsed = last
		}
	}
	c := &Collection{
		sets:        make([]*Set, len(recs)),
		dict:        dict,
		numEntities: numEntities,
		postings:    make([][]uint32, maxUsed+1),
	}
	for i, r := range recs {
		c.sets[i] = &Set{Index: i, Name: r.name, Elems: r.elems}
		for _, e := range r.elems {
			c.postings[e] = append(c.postings[e], uint32(i))
		}
	}
	return c, nil
}

func elemKey(e []Entity) []byte {
	buf := make([]byte, 0, 2*len(e))
	prev := uint32(0)
	for _, v := range e {
		d := v - prev
		for d >= 0x80 {
			buf = append(buf, byte(d)|0x80)
			d >>= 7
		}
		buf = append(buf, byte(d))
		prev = v
	}
	return buf
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

// SortKey returns a canonical ordering of set indexes by element lists;
// useful for deterministic output independent of insertion order.
func (c *Collection) SortKey() []int {
	idx := make([]int, len(c.sets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return setops.Compare(c.sets[idx[a]].Elems, c.sets[idx[b]].Elems) < 0
	})
	return idx
}
