// Package testutil provides collections shared by the test suites: the
// paper's running example (Fig. 1) and random unique-set collections.
package testutil

import (
	"fmt"
	"strings"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
)

// PaperSets returns the name -> elements mapping of the Fig. 1 collection.
func PaperSets() ([]string, [][]string) {
	names := []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7"}
	elems := [][]string{
		strings.Split("a b c d", " "),
		strings.Split("a d e", " "),
		strings.Split("a b c d f", " "),
		strings.Split("a b c g h", " "),
		strings.Split("a b h i", " "),
		strings.Split("a b j k", " "),
		strings.Split("a b g", " "),
	}
	return names, elems
}

// PaperCollection builds the 7-set example collection of Fig. 1. It panics
// on error (the input is fixed).
func PaperCollection() *dataset.Collection {
	names, elems := PaperSets()
	b := dataset.NewBuilder()
	for i := range names {
		b.Add(names[i], elems[i])
	}
	c, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("testutil: paper collection: %v", err))
	}
	return c
}

// Entity resolves an entity name in c, panicking when absent.
func Entity(c *dataset.Collection, name string) dataset.Entity {
	id, ok := c.Dict().Lookup(name)
	if !ok {
		panic(fmt.Sprintf("testutil: entity %q not in collection", name))
	}
	return id
}

// RandomCollection generates a collection of up to n random unique sets over
// a universe of m entities (duplicates dropped, so the result may hold fewer
// than n sets but always at least one).
func RandomCollection(r *rng.RNG, n, m int) *dataset.Collection {
	names := make([]string, 0, n)
	elems := make([][]dataset.Entity, 0, n)
	for i := 0; i < n; i++ {
		size := 1 + r.Intn(m)
		es := make([]dataset.Entity, 0, size)
		for j := 0; j < size; j++ {
			es = append(es, dataset.Entity(r.Intn(m)))
		}
		names = append(names, fmt.Sprintf("R%d", i))
		elems = append(elems, es)
	}
	c, err := dataset.FromIDSets(names, elems, m, true)
	if err != nil {
		c, err = dataset.FromIDSets([]string{"only"}, [][]dataset.Entity{{0}}, m, true)
		if err != nil {
			panic(err)
		}
	}
	return c
}
