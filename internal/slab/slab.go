// Package slab carves many small, growable slices out of shared chunks, so
// a run that builds one value per node — Mux module lists, module rows,
// core queues, handlers — allocates a handful of chunks rather than one
// backing array or object per node.
package slab

import (
	"sync"
	"unsafe"
	"weak"
)

// Slab hands out slices from shared chunks: a slice that outgrows its
// capacity moves to a carved one twice the size, leaving the old one behind
// as garbage until the slab's owner is dropped. Chunks double from the
// first request's size up to 4096 elements. Carving locks, because the
// parallel executors run different nodes' handlers at once; it only
// happens when a slice grows. The zero Slab is ready to use.
type Slab[T any] struct {
	mu    sync.Mutex
	spare []T
	next  int // length of the next chunk
}

// Carve returns an empty, zeroed slice with capacity n.
func (sl *Slab[T]) Carve(n int) []T {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if len(sl.spare) < n {
		sl.next = min(max(2*sl.next, n), 1<<12)
		sl.spare = make([]T, max(n, sl.next))
	}
	out := sl.spare[:0:n]
	sl.spare = sl.spare[n:]
	return out
}

// Grow returns s with room for n more elements.
func (sl *Slab[T]) Grow(s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(sl.Carve(2*(len(s)+n)), s...)
}

// Push appends x to s, growing it from sl.
func Push[T any](sl *Slab[T], s []T, x T) []T { return append(sl.Grow(s, 1), x) }

// Objects hands out single values carved from shared chunks, for a handler
// factory that outlives the runs it builds for. Unlike a Slab it holds its
// current chunk only weakly: a chunk lives exactly as long as some value
// carved from it, so a factory between runs pins no memory. A chunk that
// died restarts the size ramp, so each run's chunks double from one value
// up to 4096 again. Alloc locks, as Carve does. T must not be zero-sized.
// The zero Objects is ready to use.
type Objects[T any] struct {
	mu         sync.Mutex
	head       weak.Pointer[T] // the current chunk's first value
	size, used int
}

// Alloc returns a pointer to a copy of v.
func (o *Objects[T]) Alloc(v T) *T {
	o.mu.Lock()
	defer o.mu.Unlock()
	head := o.head.Value()
	if head == nil {
		o.size = 0
	}
	if head == nil || o.used == o.size {
		o.size = min(max(2*o.size, 1), 1<<12)
		chunk := make([]T, o.size)
		head, o.head, o.used = &chunk[0], weak.Make(&chunk[0]), 0
	}
	x := &unsafe.Slice(head, o.size)[o.used]
	*x = v
	o.used++
	return x
}
