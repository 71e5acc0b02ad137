// Package dataset is a minimal stand-in for the real
// setdiscovery/internal/dataset, just large enough to type-check the
// analyzer fixtures. It shares the real package's import path (under the
// fixture source root) so poolcheck's type matching treats fixture subsets
// exactly like production ones.
package dataset

type Entity = uint32

type Fingerprint struct{ Hi, Lo uint64 }

type Scratch struct{ depth int }

func NewScratch() *Scratch { return &Scratch{} }

type Subset struct {
	sc   *Scratch
	size int
}

func (s *Subset) PartitionScratch(e Entity, sc *Scratch) (with, without *Subset) {
	return &Subset{sc: sc}, &Subset{sc: sc}
}

func (s *Subset) Partition(e Entity) (with, without *Subset) {
	return &Subset{}, &Subset{}
}

func (s *Subset) Release() { s.sc = nil }

func (s *Subset) Unpool() { s.sc = nil }

func (s *Subset) Size() int { return s.size }

func (s *Subset) Fingerprint() Fingerprint { return Fingerprint{} }
