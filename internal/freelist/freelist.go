// Package freelist is the bounded free list that selection borrows its
// working memory from: a caller takes an item for the duration of one
// call and hands it back, so no strategy instance owns memory between
// calls.
//
// A List is a mutex-guarded slice rather than a sync.Pool. Under the race
// detector sync.Pool.Put drops items at random, which would make the
// allocation-free steady state that tests pin under -race allocate. A List
// keeps at most GOMAXPROCS idle items (its value when the list is made)
// and drops the rest, so a burst of concurrent borrowers does not stay
// resident once it is over.
//
// Every item gets an ID when it is minted, and a borrower may ask for the
// item it had last by that ID. When no other borrower took that item
// meanwhile, the borrower gets back memory its CPU most likely still
// caches, instead of memory another CPU wrote last: without it the workers
// of a parallel tree build often trade scratches between selections.
// The ID is a hint and holds nothing: a dropped item is collected whoever
// remembers its ID.
package freelist

import (
	"runtime"
	"sync"
)

// List is a free list of reusable items of type T. It is safe for
// concurrent use.
type List[T any] struct {
	mint func() T

	mu sync.Mutex
	// free holds the idle items, the one handed back last at the end.
	free []item[T]
	max  int
	// minted counts the items minted, whose IDs are 1..minted.
	minted int
}

// item is an idle item and its ID.
type item[T any] struct {
	x  T
	id int
}

// New returns an empty list that mints an item with mint when none is
// idle.
func New[T any](mint func() T) *List[T] {
	return &List[T]{mint: mint, max: runtime.GOMAXPROCS(0)}
}

// Get returns an idle item and its ID, the item with ID want when it is
// idle, or a freshly minted one. IDs start at 1, so want 0 asks for no item
// in particular. The caller owns the item until it hands it back with Put.
func (l *List[T]) Get(want int) (T, int) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		i := n - 1
		if want != 0 {
			for j, it := range l.free {
				if it.id == want {
					i = j
					break
				}
			}
		}
		it := l.free[i]
		copy(l.free[i:], l.free[i+1:])
		l.free[n-1] = item[T]{}
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return it.x, it.id
	}
	l.minted++
	id := l.minted
	l.mu.Unlock()
	return l.mint(), id
}

// Put hands x, whose ID is id, back for the next Get, or drops it when the
// list already holds its maximum of idle items. Hand back only an item in
// the state Get's callers expect: a caller whose work panicked drops its
// item instead, so a panic never returns half-used memory to the list.
func (l *List[T]) Put(x T, id int) {
	l.mu.Lock()
	if len(l.free) < l.max {
		l.free = append(l.free, item[T]{x, id})
	}
	l.mu.Unlock()
}
