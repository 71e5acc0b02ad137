// Package poolcheck holds the poolcheck analyzer fixtures. The three
// "historical" functions re-encode, shape for shape, the pooled-subset
// leaks PRs 3, 4, and 6 fixed by hand: a contradiction path returning
// before Release, a backtracking trail absorbing subsets without declared
// ownership, and an abandoned batch round leaving partition halves parked.
package poolcheck

import (
	"setdiscovery/internal/dataset"
)

// --- historical leak shape 1: contradiction path ------------------------
// An empty partition half means the answers contradict every candidate;
// the early error return used to drop both pooled halves.

func contradictionPath(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) *dataset.Subset {
	with, without := cs.PartitionScratch(e, sc) // want `with acquired here is not released` `without acquired here is not released`
	if with.Size() == 0 {
		return nil
	}
	without.Release()
	return with
}

func contradictionPathFixed(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) *dataset.Subset {
	with, without := cs.PartitionScratch(e, sc)
	if with.Size() == 0 {
		with.Release()
		without.Release()
		return nil
	}
	without.Release()
	return with
}

// --- historical leak shape 2: backtracking trail drop -------------------
// Superseded candidate sets go onto the trail for §6 backtracking; the
// store transfers ownership to the trail and must say so.

type trailEntry struct {
	before *dataset.Subset
	entity dataset.Entity
}

func trailDrop(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch, trail []trailEntry) []trailEntry {
	before, after := cs.PartitionScratch(e, sc)
	after.Release()
	trail = append(trail, trailEntry{before: before, entity: e}) // want `before placed in a composite literal`
	return trail
}

func trailKeep(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch, trail []trailEntry) []trailEntry {
	before, after := cs.PartitionScratch(e, sc)
	after.Release()
	// lint:owns — the trail owns superseded subsets until the session ends.
	trail = append(trail, trailEntry{before: before, entity: e})
	return trail
}

// --- historical leak shape 3: abandoned batch round ---------------------
// A member skipped mid-round used to leave its partition halves parked
// forever; every loop iteration must discharge what it acquired.

func abandonedBatch(css []*dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	for i, cs := range css {
		with, without := cs.PartitionScratch(e, sc) // want `with acquired here is not released` `without acquired here is not released`
		if i%2 == 0 {
			continue
		}
		with.Release()
		without.Release()
	}
}

func batchRoundFixed(css []*dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	for i, cs := range css {
		with, without := cs.PartitionScratch(e, sc)
		if i%2 == 0 {
			with.Release()
			without.Release()
			continue
		}
		with.Release()
		without.Release()
	}
}

// --- compact views -------------------------------------------------------
// A selection projects its root onto a pooled view and must release it on
// every path, the early return of an empty root included.

func viewLeak(cs *dataset.Subset, sc *dataset.Scratch) int {
	view := cs.Project(sc) // want `view acquired here is not released`
	if view.Size() < 2 {
		return 0
	}
	view.Release()
	return 1
}

func viewReleased(cs *dataset.Subset, sc *dataset.Scratch) int {
	view := cs.Project(sc)
	n := view.Size()
	view.Release()
	return n
}

// --- double release and use after release -------------------------------

func doubleRelease(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	with.Release()
	without.Release()
	with.Release() // want `second Release of with`
}

func useAfterRelease(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) int {
	with, without := cs.PartitionScratch(e, sc)
	without.Release()
	with.Release()
	return with.Size() // want `with used after Release`
}

func overwriteWhileOwned(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc) // want `with acquired here is overwritten before Release`
	without.Release()
	with = nil
	_ = with
}

// --- escapes ------------------------------------------------------------

type holder struct{ s *Subsetish }

// Subsetish aliases the pooled type through a named field struct so the
// fixtures exercise selector stores.
type Subsetish = dataset.Subset

func fieldStore(h *holder, cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	without.Release()
	h.s = with // want `with stored without`
}

func fieldStoreOwned(h *holder, cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	without.Release()
	h.s = with // lint:owns — holder releases it on Close
}

func directFieldStore(h *holder, cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	h.s, _ = cs.PartitionScratch(e, sc) // want `stored without` `assigned to _`
}

func sendHalf(ch chan *dataset.Subset, cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	without.Release()
	ch <- with // want `with sent to a channel`
}

func unpoolEscape(h *holder, cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	without.Release()
	with.Unpool()
	h.s = with // no marker needed: unpooled values are unmanaged
}

// --- clean patterns the analyzer must not flag --------------------------

func releaseAllPaths(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) int {
	with, without := cs.PartitionScratch(e, sc)
	var n int
	if with.Size() > without.Size() {
		n = with.Size()
	} else {
		n = without.Size()
	}
	with.Release()
	without.Release()
	return n
}

func borrowHelper(s *dataset.Subset) int { return s.Size() }

func borrowThenRelease(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) int {
	with, without := cs.PartitionScratch(e, sc)
	n := borrowHelper(with) + borrowHelper(without)
	with.Release()
	without.Release()
	return n
}

func deferRelease(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) int {
	with, without := cs.PartitionScratch(e, sc)
	defer with.Release()
	defer without.Release()
	return with.Size() + without.Size()
}

// forkJoin mirrors tree.build: a goroutine borrows one half, the parent
// joins before releasing both.
func forkJoin(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	done := make(chan struct{})
	go func() {
		borrowHelper(with)
		close(done)
	}()
	borrowHelper(without)
	<-done
	with.Release()
	without.Release()
}

// --- interprocedural summaries ------------------------------------------

// pickHalf is owner-returning: its caller must release the result.
func pickHalf(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch, yes bool) *dataset.Subset {
	with, without := cs.PartitionScratch(e, sc)
	if yes {
		without.Release()
		return with
	}
	with.Release()
	return without
}

func callerOwns(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	h := pickHalf(cs, e, sc, true)
	h.Release()
}

func callerLeaks(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) int {
	h := pickHalf(cs, e, sc, false) // want `h acquired here is not released`
	return h.Size()
}

// consumeHalf takes ownership of its argument.
func consumeHalf(s *dataset.Subset) { s.Release() }

func handoff(cs *dataset.Subset, e dataset.Entity, sc *dataset.Scratch) {
	with, without := cs.PartitionScratch(e, sc)
	consumeHalf(with)
	consumeHalf(without)
}
