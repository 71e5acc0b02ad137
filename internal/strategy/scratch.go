package strategy

import (
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

// workerScratch bundles the reusable per-instance state of the lookahead
// strategies: the dataset scratch (count arrays, EntityCount buffer, bitset
// pool) and a depth-indexed stack of candidate buffers so the lookahead
// recursion levels never stomp each other's candidate lists. Every KLP and
// GainK value carries one, and New mints a fresh one per sibling.
type workerScratch struct {
	sc        *dataset.Scratch
	candStack [][]candidate
}

func newWorkerScratch() workerScratch {
	return workerScratch{sc: dataset.NewScratch()}
}

// candidatesAt fills the depth-th candidate buffer with sub's informative
// entities under metric m. The returned slice is owned by the caller until
// the next candidatesAt call at the same depth; deeper recursion uses
// deeper buffers and never touches it.
func (w *workerScratch) candidatesAt(depth int, sub *dataset.Subset, m cost.Metric) []candidate {
	for len(w.candStack) <= depth {
		w.candStack = append(w.candStack, nil)
	}
	cands := appendCandidates(w.candStack[depth], sub, m, w.sc)
	w.candStack[depth] = cands
	return cands
}
