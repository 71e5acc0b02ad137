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
