package freelist

import (
	"runtime"
	"testing"
)

// TestListReusesAndBoundsIdleItems: Get mints only when no item is idle,
// hands back the items Put returned, and the list keeps at most GOMAXPROCS
// idle items, dropping the rest of a burst.
func TestListReusesAndBoundsIdleItems(t *testing.T) {
	minted := 0
	l := New(func() *int { minted++; return new(int) })
	a, id := l.Get(0)
	l.Put(a, id)
	if b, _ := l.Get(0); b != a || minted != 1 {
		t.Fatalf("Get after Put returned a new item (%d minted)", minted)
	}

	limit := runtime.GOMAXPROCS(0)
	burst := make([]*int, limit+3)
	ids := make([]int, len(burst))
	for i := range burst {
		burst[i], ids[i] = l.Get(0)
	}
	for i, x := range burst {
		l.Put(x, ids[i])
	}
	if len(l.free) != limit {
		t.Fatalf("%d idle items after a burst of %d, want %d", len(l.free), len(burst), limit)
	}
	minted = 0
	for range limit {
		l.Get(0)
	}
	if minted != 0 {
		t.Fatalf("%d minted while %d items were idle", minted, limit)
	}
	if l.Get(0); minted != 1 {
		t.Fatalf("an empty list minted %d items, want 1", minted)
	}
}

// TestListGetPrefersWantedID: Get returns the idle item with the ID asked
// for, wherever it sits in the list, the top item when that one is not
// idle, and every minted item has its own nonzero ID.
func TestListGetPrefersWantedID(t *testing.T) {
	l := New(func() *int { return new(int) })
	l.max = 3
	x := make([]*int, 3)
	ids := make([]int, 3)
	seen := make(map[int]bool)
	for i := range x {
		x[i], ids[i] = l.Get(0)
		if ids[i] == 0 || seen[ids[i]] {
			t.Fatalf("item %d minted with ID %d (seen %v)", i, ids[i], seen)
		}
		seen[ids[i]] = true
	}
	for i := range x {
		l.Put(x[i], ids[i])
	}
	if got, id := l.Get(ids[0]); got != x[0] || id != ids[0] {
		t.Fatalf("Get(%d) returned the item with ID %d", ids[0], id)
	}
	if got, id := l.Get(ids[0]); got != x[2] || id != ids[2] {
		t.Fatalf("Get of a borrowed ID returned the item with ID %d, want the top one, %d", id, ids[2])
	}
}
