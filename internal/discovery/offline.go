package discovery

import (
	"time"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/tree"
)

// FollowTree runs an interactive discovery along a precomputed decision
// tree (§4.5, "Offline tree construction"): the questions are fixed by the
// tree, so each step only follows one branch — useful when the same static
// collection is searched repeatedly and per-question selection cost
// matters.
//
// "Don't know" answers cannot be rerouted in a fixed tree; the walk stops
// and the result holds every set under the current node as candidates.
// Branch following is the walk's whole selection cost, so SelectionTime
// counts it and leaves the oracle's time off the clock, as Run does.
func FollowTree(c *dataset.Collection, t *tree.Tree, o Oracle) (*Result, error) {
	res := &Result{}
	n := t.Root
	for !n.Leaf() {
		a := o.Answer(n.Entity)
		if a != Yes && a != No && a != Unknown {
			return nil, ErrInvalidAnswer
		}
		start := time.Now()
		res.Questions++
		res.Interactions++
		res.Asked = append(res.Asked, Question{Entity: n.Entity, Answer: a})
		if a == Unknown {
			res.Unknowns++
			res.Candidates = c.SubsetOf(leavesUnder(n))
			res.SelectionTime += time.Since(start)
			return res, nil
		}
		if a == Yes {
			n = n.Yes
		} else {
			n = n.No
		}
		res.SelectionTime += time.Since(start)
	}
	res.Candidates = c.SubsetOf([]uint32{uint32(n.Set.Index)})
	res.Target = n.Set
	return res, nil
}

// leavesUnder returns the set indexes of all leaves below n.
func leavesUnder(n *tree.Node) []uint32 {
	var out []uint32
	var walk func(*tree.Node)
	walk = func(n *tree.Node) {
		if n.Leaf() {
			out = append(out, uint32(n.Set.Index))
			return
		}
		walk(n.Yes)
		walk(n.No)
	}
	walk(n)
	return out
}
