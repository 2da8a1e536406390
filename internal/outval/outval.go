// Package outval owns how an engine stores and reads back node outputs.
//
// An output is a typed wire.Body. Primitive Go values the engines see all
// the time (int, int64, bool, graph.NodeID) encode into reserved kinds;
// algorithm packages register decoders for their own pointer-free result
// structs (apps.BFSResult, abfs's unreachable, …) under kinds of their
// choosing, and the primitives are registered the same way. A Result
// boundary decodes each kind's values into a few shared chunks and boxes
// them in place, so a decoded map costs the map and its chunks, not a box
// per node; the dense form (Dense) still saves the map and the chunks.
//
// Table is the one output column both engines (async.Sim and
// syncrun.Runner) hold: the has-bit per node, the typed bodies, the map
// and dense materializations their Results return, and the per-node record
// their snapshot frames carry.
//
// Registration happens in package init functions only; after init the
// registry is read-only, so concurrent decodes (the parallel experiment
// harness) need no locking.
package outval

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Reserved kinds for engine-encoded primitives. They live at the top of
// the Kind space so no algorithm's message or output kinds collide.
const (
	// kindInt carries a Go int in A.
	kindInt wire.Kind = 0x7F01
	// kindInt64 carries an int64 in A.
	kindInt64 wire.Kind = 0x7F02
	// kindBool carries a bool in A (wire.FromBool encoding).
	kindBool wire.Kind = 0x7F03
	// kindNode carries a graph.NodeID in A.
	kindNode wire.Kind = 0x7F04
)

// codecs maps registered output kinds to their decoders. Written only
// during init (Register documents the contract); read concurrently.
var codecs = map[wire.Kind]codec{}

// codec decodes the set slots of its kind in [lo, hi) into chunks, one for
// each set bit of their count n, and passes each value, boxed in place, to
// put. A chunk of 2^j values of a 2^i- or 3·2^i-byte T is exactly an
// allocator size class, so no rounding slack stays; a chunk is written
// only before its boxes reach put.
type codec func(bodies []wire.Body, set []bool, lo, hi int, put func(i int, v any))

func init() {
	Register(kindInt, func(b wire.Body) int { return int(b.A) })
	Register(kindInt64, func(b wire.Body) int64 { return b.A })
	Register(kindBool, func(b wire.Body) bool { return wire.ToBool(b.A) })
	Register(kindNode, func(b wire.Body) graph.NodeID { return graph.NodeID(b.A) })
}

// Register installs the decoder for one output kind. It must be called
// from a package init function (the registry is lock-free by virtue of
// init's happens-before edge). Registering kind 0, a kind already
// registered (the primitives' included) or a T holding any pointer
// panics: an interface holding a pointer-free T always points at the
// value, which is what lets decoded values share a chunk.
func Register[T any](k wire.Kind, dec func(wire.Body) T) {
	if k == 0 || Known(k) || !pointerFree(reflect.TypeFor[T]()) {
		panic(fmt.Sprintf("outval: output kind %d is zero or already registered, or its %v holds pointers", k, reflect.TypeFor[T]()))
	}
	var proto any = *new(T)
	typ := (*[2]unsafe.Pointer)(unsafe.Pointer(&proto))[0]
	codecs[k] = func(bodies []wire.Body, set []bool, lo, hi int, put func(int, any)) {
		n := 0
		for i := lo; i < hi; i++ {
			if set[i] && bodies[i].Kind == k {
				n++
			}
		}
		var chunk []T
		for i := lo; i < hi; i++ {
			if set[i] && bodies[i].Kind == k {
				if len(chunk) == cap(chunk) {
					chunk = make([]T, 0, 1<<(bits.Len(uint(n))-1))
					n -= cap(chunk)
				}
				chunk = append(chunk, dec(bodies[i]))
				var v any // T's type word and the chunk value's address
				*(*[2]unsafe.Pointer)(unsafe.Pointer(&v)) = [2]unsafe.Pointer{typ, unsafe.Pointer(&chunk[len(chunk)-1])}
				put(i, v)
			}
		}
	}
}

// pointerFree reports whether no value of type t holds a pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return t.Kind() <= reflect.Complex128
}

// Encode converts the value node id passed to the engines' Output(any)
// convenience into its Body. Only int, int64, bool and graph.NodeID have
// one; any other value panics, naming the node, the value's type and
// OutputBody, the way to output a struct.
func Encode(id graph.NodeID, v any) wire.Body {
	switch x := v.(type) {
	case int:
		return wire.Body{Kind: kindInt, A: int64(x)}
	case int64:
		return Int64(x)
	case bool:
		return wire.Body{Kind: kindBool, A: wire.FromBool(x)}
	case graph.NodeID:
		return wire.Body{Kind: kindNode, A: int64(x)}
	}
	panic(fmt.Sprintf("outval: node %d output a %T; Output takes int, int64, bool or graph.NodeID, other values go through OutputBody with a registered output kind", id, v))
}

// Int64 is the body Encode(id, x) returns for an int64 x, built without
// boxing x into an interface: the allocation-free way to output one.
func Int64(x int64) wire.Body { return wire.Body{Kind: kindInt64, A: x} }

// Known reports whether a body of kind k decodes: a primitive or a
// registered kind. Kind 0 is not.
func Known(k wire.Kind) bool {
	_, ok := codecs[k]
	return ok
}

// Table is one engine's output column, one slot per hosted node. A set
// slot holds a typed body (non-zero Kind). The body slab is lazy —
// allocated on the first output and published by atomic pointer, so
// workers writing their own disjoint slots concurrently agree on one slab.
// Only the 1-byte has-bit column is eager. Call Init before use; Reset
// rearms the table and keeps its slab.
type Table struct {
	has    []bool
	bodies atomic.Pointer[[]wire.Body]
	mu     sync.Mutex
}

// Init sizes an empty table for n slots.
func (t *Table) Init(n int) { t.has = make([]bool, n) }

// Has reports whether slot i holds an output.
func (t *Table) Has(i int) bool { return t.has[i] }

// SetBody stores the typed output b in slot i, replacing whatever the slot
// held, and reports whether it is the slot's first output. A zero Kind
// panics: it is not a value.
func (t *Table) SetBody(i int, b wire.Body) bool {
	if b.Kind == 0 {
		panic(fmt.Sprintf("outval: slot %d output a Body with zero Kind", i))
	}
	t.slab()[i] = b
	first := !t.has[i]
	t.has[i] = true
	return first
}

// Reset empties every slot, keeping the slab for the next run.
func (t *Table) Reset() {
	clear(t.has)
	clear(t.loaded())
}

// Map materializes every set slot's decoded value, keyed by base + slot,
// each boxed in place in its kind's chunks (see codec): a call allocates
// the map and the chunks, not a box per output, and a value the caller
// keeps keeps its chunk alive. With w > 1, w goroutines decode contiguous
// slot ranges, each into chunks of its own, through a per-slot scratch
// column the map is filled from afterwards; w = 1 decodes straight into
// the map. Decoders must be safe to call concurrently (they are pure
// functions of the body); a decode panic reaches the caller either way.
func (t *Table) Map(base graph.NodeID, w int) map[graph.NodeID]any {
	return decodeMap(t.loaded(), t.has, base, w)
}

func decodeMap(bodies []wire.Body, set []bool, base graph.NodeID, w int) map[graph.NodeID]any {
	out := make(map[graph.NodeID]any, Count(set))
	if w <= 1 {
		fill(bodies, set, 0, len(set), func(i int, v any) { out[base+graph.NodeID(i)] = v })
		return out
	}
	vals := make([]any, len(set))
	execpolicy.FanOut(w, make([]any, w), func(k int) {
		fill(bodies, set, k*len(vals)/w, (k+1)*len(vals)/w, func(i int, v any) { vals[i] = v })
	})
	for i, has := range set {
		if has {
			out[base+graph.NodeID(i)] = vals[i]
		}
	}
	return out
}

// fill decodes the set slots in [lo, hi) kind by kind, passing each slot's
// boxed value to put. An unregistered kind panics: an output Body reaching
// a Result boundary without a decoder is a wiring bug, not data.
func fill(bodies []wire.Body, set []bool, lo, hi int, put func(i int, v any)) {
	kinds := make([]wire.Kind, 0, 4)
	for i := lo; i < hi; i++ {
		if set[i] && !slices.Contains(kinds, bodies[i].Kind) {
			kinds = append(kinds, bodies[i].Kind)
		}
	}
	for _, k := range kinds {
		dec, ok := codecs[k]
		if !ok {
			panic(fmt.Sprintf("outval: no decoder registered for output kind %d", k))
		}
		dec(bodies, set, lo, hi, put)
	}
}

// Dense returns the table in the dense Result form, slot-indexed: set is
// the has-bit column, bodies the typed values. With own the slices are
// copies the caller may keep across Reset; otherwise they alias the table.
// DecodeDense turns the pair into Map's form.
func (t *Table) Dense(own bool) (bodies []wire.Body, set []bool) {
	bodies, set = t.loaded(), t.has
	switch {
	case bodies == nil:
		bodies = make([]wire.Body, len(t.has))
	case own:
		bodies = slices.Clone(bodies)
	}
	if own {
		set = slices.Clone(set)
	}
	return bodies, set
}

// DecodeDense materializes the decoded output map of a Dense pair, the
// way Map(0, 1) does.
func DecodeDense(bodies []wire.Body, set []bool) map[graph.NodeID]any {
	return decodeMap(bodies, set, 0, 1)
}

// Count is the number of set slots in a has-bit column.
func Count(set []bool) int {
	n := 0
	for _, has := range set {
		if has {
			n++
		}
	}
	return n
}

// Each calls fn with every set slot's body in slot order.
func (t *Table) Each(fn func(i int, b wire.Body)) {
	bodies := t.loaded()
	for i, has := range t.has {
		if has {
			fn(i, bodies[i])
		}
	}
}

// Record codes slot i's frame record: the has-bit, then the body if the
// slot is set. Loading refuses a kind no decoder knows (it would restore,
// then panic at the Result boundary) and a segment, which no decoder reads
// and nothing would release; loading into i < 0 skips the record, for a
// node another engine hosts, without carving its segment.
func (t *Table) Record(c *wire.Coder, i int) {
	var has bool
	var b wire.Body
	if !c.Loading() && t.has[i] {
		b, has = t.loaded()[i], true
	}
	if c.Bool(&has); !has {
		return
	}
	if i < 0 {
		c.SkipBody()
		return
	}
	if c.Body(&b); !c.Loading() || c.Failed() {
		return
	}
	if !Known(b.Kind) {
		c.Fail("slot %d output record has kind %d, which no decoder is registered for", i, b.Kind)
	} else if b.Seg != (wire.Seg{}) {
		c.Fail("slot %d output record carries a segment", i)
	} else {
		t.SetBody(i, b)
	}
}

// slab returns the body slab, allocating and publishing it on first use.
// The double-checked lock makes one allocation win when workers race to
// the first output.
func (t *Table) slab() []wire.Body {
	if s := t.loaded(); s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.loaded(); s != nil {
		return s
	}
	s := make([]wire.Body, len(t.has))
	t.bodies.Store(&s)
	return s
}

// loaded returns the body slab, or nil before the first output.
func (t *Table) loaded() []wire.Body {
	if s := t.bodies.Load(); s != nil {
		return *s
	}
	return nil
}
