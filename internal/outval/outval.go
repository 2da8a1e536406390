// Package outval owns how an engine stores and reads back node outputs.
//
// An output is a typed wire.Body. Primitive Go values the engines see all
// the time (int, int64, bool, graph.NodeID) encode into reserved kinds
// handled here; algorithm packages register decoders for their own
// fixed-size result structs (apps.BFSResult, abfs.Unreachable, …) under
// kinds of their choosing, and decode dispatches on the Kind tag when a
// Result boundary materializes user-facing values.
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
	"slices"
	"sync"
	"sync/atomic"

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

// decoders maps registered output kinds to their decode funcs. Written
// only during init (Register documents the contract); read concurrently.
var decoders = map[wire.Kind]func(wire.Body) any{}

// Register installs the decoder for one output kind. It must be called
// from a package init function (the registry is lock-free by virtue of
// init's happens-before edge); registering kind 0, a reserved kind or the
// same kind twice panics.
func Register(k wire.Kind, dec func(wire.Body) any) {
	if k == 0 || Known(k) {
		panic(fmt.Sprintf("outval: output kind %d is zero, reserved for primitives or already registered", k))
	}
	decoders[k] = dec
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

// primDecode decodes the reserved primitive kinds.
func primDecode(b wire.Body) (any, bool) {
	switch b.Kind {
	case kindInt:
		return int(b.A), true
	case kindInt64:
		return b.A, true
	case kindBool:
		return wire.ToBool(b.A), true
	case kindNode:
		return graph.NodeID(b.A), true
	}
	return nil, false
}

// decode materializes the user-facing value of an output Body: reserved
// primitive kinds decode here, registered kinds dispatch to their decoder,
// and an unknown kind panics — an output Body reaching a Result boundary
// without a decoder is a wiring bug, not data.
func decode(b wire.Body) any {
	if v, ok := primDecode(b); ok {
		return v
	}
	if dec, ok := decoders[b.Kind]; ok {
		return dec(b)
	}
	panic(fmt.Sprintf("outval: no decoder registered for output kind %d", b.Kind))
}

// Known reports whether a body of kind k decodes: a reserved primitive kind
// or a registered one. Kind 0 is not.
func Known(k wire.Kind) bool {
	_, prim := primDecode(wire.Body{Kind: k})
	_, reg := decoders[k]
	return prim || reg
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

// Map materializes every set slot's decoded value, keyed by base + slot.
// With w > 1, w goroutines decode contiguous slot ranges into a per-slot
// scratch column first and the map is filled from it afterwards; w = 1
// decodes straight into the map. Decoders must be safe to call
// concurrently (they are pure functions of the body); a decode panic
// reaches the caller either way.
func (t *Table) Map(base graph.NodeID, w int) map[graph.NodeID]any {
	out := make(map[graph.NodeID]any, Count(t.has))
	bodies := t.loaded()
	if w <= 1 {
		for i, has := range t.has {
			if has {
				out[base+graph.NodeID(i)] = decode(bodies[i])
			}
		}
		return out
	}
	vals := make([]any, len(t.has))
	execpolicy.FanOut(w, make([]any, w), func(k int) {
		for i := k * len(vals) / w; i < (k+1)*len(vals)/w; i++ {
			if t.has[i] {
				vals[i] = decode(bodies[i])
			}
		}
	})
	for i, has := range t.has {
		if has {
			out[base+graph.NodeID(i)] = vals[i]
		}
	}
	return out
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

// DecodeDense materializes the decoded output map of a Dense pair.
func DecodeDense(bodies []wire.Body, set []bool) map[graph.NodeID]any {
	out := make(map[graph.NodeID]any, Count(set))
	for i, has := range set {
		if has {
			out[graph.NodeID(i)] = decode(bodies[i])
		}
	}
	return out
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
