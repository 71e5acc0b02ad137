package strategy

import (
	"math"

	"setdiscovery/internal/dataset"
)

// MostEven is the greedy (ln n + 1)-approximation of Adler & Heeringa
// (§4.2.1): pick the entity that splits the sub-collection most evenly.
// Ties break by smallest entity ID for determinism.
type MostEven struct{}

// Name implements Strategy.
func (MostEven) Name() string { return "most-even" }

// New implements Factory. Selection is stateless: every call, on a zero
// value as on a minted one, counts in a scratch it borrows for the call
// (dataset.BorrowScratch).
func (MostEven) New() Strategy { return MostEven{} }

// Select implements Strategy.
func (s MostEven) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	return s.SelectExcluding(sub, nil)
}

// SelectExcluding implements Excluder for MostEven.
func (MostEven) SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	sc := dataset.BorrowScratch()
	n := sub.Size()
	found := false
	var best dataset.Entity
	bestUneven := 0
	for _, ec := range sub.InformativeEntitiesInto(sc) {
		if excluded[ec.Entity] {
			continue
		}
		if u := abs(2*ec.Count - n); !found || u < bestUneven {
			best, bestUneven, found = ec.Entity, u, true
		}
	}
	dataset.ReturnScratch(sc)
	return best, found
}

// InfoGain is the ID3/C4.5 heuristic (§4.2.2, eq 9): each set is its own
// class, so the gain of entity e splitting n sets into n1/n2 is
// log2 n − (n1·log2 n1 + n2·log2 n2)/n, maximised when the split is most
// even. Ties break by evenness then entity ID.
type InfoGain struct{}

// Name implements Strategy.
func (InfoGain) Name() string { return "infogain" }

// New implements Factory. Selection is stateless: every call, on a zero
// value as on a minted one, counts in a scratch it borrows for the call
// (dataset.BorrowScratch).
func (InfoGain) New() Strategy { return InfoGain{} }

// Select implements Strategy.
func (s InfoGain) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	return s.SelectExcluding(sub, nil)
}

// SelectExcluding implements Excluder for InfoGain. Exclusion filters the
// candidates before the usual gain comparison.
func (InfoGain) SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	sc := dataset.BorrowScratch()
	n := sub.Size()
	found := false
	var best dataset.Entity
	bestEnt, bestUneven := 0.0, 0
	for _, ec := range sub.InformativeEntitiesInto(sc) {
		if excluded[ec.Entity] {
			continue
		}
		e := weightedChildEntropy(ec.Count, n-ec.Count)
		u := abs(2*ec.Count - n)
		if !found || e < bestEnt || (e == bestEnt && u < bestUneven) {
			best, bestEnt, bestUneven, found = ec.Entity, e, u, true
		}
	}
	dataset.ReturnScratch(sc)
	return best, found
}

// weightedChildEntropy returns n1·log2 n1 + n2·log2 n2 — the only part of
// eq 9 that varies across entities (log2 n is constant per node).
func weightedChildEntropy(n1, n2 int) float64 {
	return xlog2(n1) + xlog2(n2)
}

func xlog2(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// Indg is the indistinguishable-pairs heuristic of Roy et al. (§4.2.3,
// eq 10): minimise n1(n1−1)/2 + n2(n2−1)/2, the number of set pairs a
// question fails to separate. Ties break by smallest entity ID (evenness
// ties are impossible: the pair count is strictly monotone in unevenness).
type Indg struct{}

// Name implements Strategy.
func (Indg) Name() string { return "indg" }

// New implements Factory. Selection is stateless: every call, on a zero
// value as on a minted one, counts in a scratch it borrows for the call
// (dataset.BorrowScratch).
func (Indg) New() Strategy { return Indg{} }

// Select implements Strategy.
func (s Indg) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	return s.SelectExcluding(sub, nil)
}

// SelectExcluding implements Excluder for Indg.
func (Indg) SelectExcluding(sub *dataset.Subset, excluded map[dataset.Entity]bool) (dataset.Entity, bool) {
	sc := dataset.BorrowScratch()
	n := sub.Size()
	found := false
	var best dataset.Entity
	var bestPairs int64
	for _, ec := range sub.InformativeEntitiesInto(sc) {
		if excluded[ec.Entity] {
			continue
		}
		n1, n2 := int64(ec.Count), int64(n-ec.Count)
		pairs := n1*(n1-1)/2 + n2*(n2-1)/2
		if !found || pairs < bestPairs {
			best, bestPairs, found = ec.Entity, pairs, true
		}
	}
	dataset.ReturnScratch(sc)
	return best, found
}
