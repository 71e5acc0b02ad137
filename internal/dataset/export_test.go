package dataset

// SetDenseThresholdForTest overrides the dense-counting cutoff so tests can
// exercise both counting paths without building multi-million-entity
// universes. It returns a restore function.
func SetDenseThresholdForTest(n int) func() {
	old := denseThreshold
	denseThreshold = n
	return func() { denseThreshold = old }
}

// DirtyCountStateForTest reports how many dense count entries and seen
// bitmap words of sc are non-zero, and how many entries its sparse map
// holds: all three must be zero between counting calls.
func (sc *Scratch) DirtyCountStateForTest() (counts, seenWords, sparse int) {
	for _, n := range sc.counts {
		if n != 0 {
			counts++
		}
	}
	for _, w := range sc.seen {
		if w != 0 {
			seenWords++
		}
	}
	return counts, seenWords, len(sc.sparse)
}

// NaiveInformative is the counting suites' reference counter, for the
// external view tests.
var NaiveInformative = naiveInformative

// GlobalMembers returns the members of a view's subset as the global set
// indexes they stand for (plain member indexes on a subset that is not a
// view).
func GlobalMembers(s *Subset) []uint32 {
	members := s.Members()
	if p := s.c.view; p != nil {
		for i, m := range members {
			members[i] = p.sets[m]
		}
	}
	return members
}

// XOR returns a ⊕ b.
func XOR(a, b Fingerprint) Fingerprint { return a.xor(b) }
