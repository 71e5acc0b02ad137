// Package intern provides a string interning dictionary that maps strings to
// dense uint32 identifiers and back. Collections of sets store entities as
// IDs; the dictionary is the only place the original strings live.
package intern

import "fmt"

// Dict is a bidirectional string <-> uint32 dictionary. IDs are assigned
// densely in first-seen order starting at 0. The zero value is not usable;
// call NewDict.
type Dict struct {
	ids     map[string]uint32
	strings []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Intern returns the ID for s, assigning the next free ID if s is new.
func (d *Dict) Intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.strings))
	d.ids[s] = id
	d.strings = append(d.strings, s)
	return id
}

// InternBytes is Intern for the string held in b. A known string costs no
// allocation, and a new one is copied, so the dictionary keeps no reference
// to b.
func (d *Dict) InternBytes(b []byte) uint32 {
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	return d.Intern(string(b))
}

// Lookup returns the ID for s and whether s has been interned.
func (d *Dict) Lookup(s string) (uint32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// String returns the string for id. It panics if id was never assigned,
// mirroring slice indexing semantics.
func (d *Dict) String(id uint32) string {
	return d.strings[id]
}

// StringOK returns the string for id and whether id has been assigned.
func (d *Dict) StringOK(id uint32) (string, bool) {
	if int(id) >= len(d.strings) {
		return "", false
	}
	return d.strings[id], true
}

// Len reports the number of distinct interned strings.
func (d *Dict) Len() int { return len(d.strings) }

// Strings returns the interned strings indexed by ID. The returned slice is
// the dictionary's backing store; callers must not modify it.
func (d *Dict) Strings() []string { return d.strings }

// InternAll interns every string in ss and returns the corresponding IDs.
func (d *Dict) InternAll(ss []string) []uint32 {
	ids := make([]uint32, len(ss))
	for i, s := range ss {
		ids[i] = d.Intern(s)
	}
	return ids
}

// MustLookup returns the ID for s, panicking with a descriptive error when s
// was never interned. Intended for test and example code.
func (d *Dict) MustLookup(s string) uint32 {
	id, ok := d.ids[s]
	if !ok {
		panic(fmt.Sprintf("intern: %q not in dictionary", s))
	}
	return id
}
