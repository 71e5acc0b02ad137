package strategy

import (
	"math"

	"setdiscovery/internal/dataset"
)

// baseScratch gives the stateless baselines an optional scratch for
// allocation-free entity counting. The zero value (nil pointer) keeps the
// baseline a plain stateless value running the allocating path; Factory.New
// attaches a fresh scratch so each worker counts into private reusable
// memory.
type baseScratch struct {
	sc *dataset.Scratch
}

// infos returns sub's informative entities, through the scratch when one is
// attached. The slice aliases the scratch and is consumed before the next
// call, matching how every baseline uses it.
func (b baseScratch) infos(sub *dataset.Subset) []dataset.EntityCount {
	if b.sc != nil {
		return sub.InformativeEntitiesInto(b.sc)
	}
	return sub.InformativeEntities()
}

// MostEven is the greedy (ln n + 1)-approximation of Adler & Heeringa
// (§4.2.1): pick the entity that splits the sub-collection most evenly.
// Ties break by smallest entity ID for determinism.
type MostEven struct{ baseScratch }

// Name implements Strategy.
func (MostEven) Name() string { return "most-even" }

// New implements Factory: selection is stateless, but each worker instance
// carries its own counting scratch.
func (s MostEven) New() Strategy { return MostEven{baseScratch{dataset.NewScratch()}} }

// Select implements Strategy.
func (s MostEven) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	infos := s.infos(sub)
	if len(infos) == 0 {
		return 0, false
	}
	n := sub.Size()
	best, bestUneven := infos[0].Entity, abs(2*infos[0].Count-n)
	for _, ec := range infos[1:] {
		if u := abs(2*ec.Count - n); u < bestUneven {
			best, bestUneven = ec.Entity, u
		}
	}
	return best, true
}

// InfoGain is the ID3/C4.5 heuristic (§4.2.2, eq 9): each set is its own
// class, so the gain of entity e splitting n sets into n1/n2 is
// log2 n − (n1·log2 n1 + n2·log2 n2)/n, maximised when the split is most
// even. Ties break by evenness then entity ID.
type InfoGain struct{ baseScratch }

// Name implements Strategy.
func (InfoGain) Name() string { return "infogain" }

// New implements Factory: selection is stateless, but each worker instance
// carries its own counting scratch.
func (s InfoGain) New() Strategy { return InfoGain{baseScratch{dataset.NewScratch()}} }

// Select implements Strategy.
func (s InfoGain) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	infos := s.infos(sub)
	if len(infos) == 0 {
		return 0, false
	}
	n := sub.Size()
	var best dataset.Entity
	bestEnt, bestUneven := math.Inf(1), 0
	for _, ec := range infos {
		e := weightedChildEntropy(ec.Count, n-ec.Count)
		u := abs(2*ec.Count - n)
		if e < bestEnt || (e == bestEnt && u < bestUneven) {
			best, bestEnt, bestUneven = ec.Entity, e, u
		}
	}
	return best, true
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
type Indg struct{ baseScratch }

// Name implements Strategy.
func (Indg) Name() string { return "indg" }

// New implements Factory: selection is stateless, but each worker instance
// carries its own counting scratch.
func (s Indg) New() Strategy { return Indg{baseScratch{dataset.NewScratch()}} }

// Select implements Strategy.
func (s Indg) Select(sub *dataset.Subset) (dataset.Entity, bool) {
	infos := s.infos(sub)
	if len(infos) == 0 {
		return 0, false
	}
	n := sub.Size()
	var best dataset.Entity
	bestPairs := int64(math.MaxInt64)
	for _, ec := range infos {
		n1 := int64(ec.Count)
		n2 := int64(n - ec.Count)
		pairs := n1*(n1-1)/2 + n2*(n2-1)/2
		if pairs < bestPairs {
			best, bestPairs = ec.Entity, pairs
		}
	}
	return best, true
}
