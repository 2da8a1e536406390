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
// syncrun.Runner) hold: the has-bit per node, the typed bodies, a boxed
// escape for values Encode cannot represent, the map and dense
// materializations their Results return, and the per-node record their
// snapshot frames carry. The slot format — a zero Kind marks a boxed slot,
// both value slabs are allocated lazily — is known only here.
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
// init's happens-before edge); registering kind 0 (the boxed-slot marker),
// a reserved kind or the same kind twice panics.
func Register(k wire.Kind, dec func(wire.Body) any) {
	if k == 0 || Known(k) {
		panic(fmt.Sprintf("outval: output kind %d is zero, reserved for primitives or already registered", k))
	}
	decoders[k] = dec
}

// Encode converts the primitive output values the engines accept through
// the legacy Output(any) path into a Body. The second return reports
// whether v was encodable; callers fall back to boxed storage otherwise.
func Encode(v any) (wire.Body, bool) {
	switch x := v.(type) {
	case int:
		return wire.Body{Kind: kindInt, A: int64(x)}, true
	case int64:
		return Int64(x), true
	case bool:
		return wire.Body{Kind: kindBool, A: wire.FromBool(x)}, true
	case graph.NodeID:
		return wire.Body{Kind: kindNode, A: int64(x)}, true
	}
	return wire.Body{}, false
}

// Int64 is the body Encode(x) returns for an int64 x, built without
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
// or a registered one. Kind 0, the boxed-slot marker, is not.
func Known(k wire.Kind) bool {
	_, prim := primDecode(wire.Body{Kind: k})
	_, reg := decoders[k]
	return prim || reg
}

// decodeSlot materializes one output slot: a typed body (non-zero Kind)
// decodes, the zero body means the value lives in the boxed escape.
func decodeSlot(b wire.Body, boxed any) any {
	if b.Kind != 0 {
		return decode(b)
	}
	return boxed
}

// Table is one engine's output column, one slot per hosted node. A slot
// holds either a typed body (non-zero Kind) or, for values Encode cannot
// represent, a boxed value with a zero body. Both value slabs are lazy —
// allocated on the first output of their kind and published by atomic
// pointer, so workers writing their own disjoint slots concurrently agree
// on one slab. Only the 1-byte has-bit column is eager. Call Init before
// use; Reset rearms the table and keeps its slabs.
type Table struct {
	has    []bool
	bodies atomic.Pointer[[]wire.Body]
	boxed  atomic.Pointer[[]any]
	mu     sync.Mutex
}

// Init sizes an empty table for n slots.
func (t *Table) Init(n int) { t.has = make([]bool, n) }

// Has reports whether slot i holds an output.
func (t *Table) Has(i int) bool { return t.has[i] }

// SetBody stores the typed output b in slot i, replacing whatever the slot
// held, and reports whether it is the slot's first output. A zero Kind
// panics: it is the boxed marker, not a value.
func (t *Table) SetBody(i int, b wire.Body) bool {
	if b.Kind == 0 {
		panic(fmt.Sprintf("outval: slot %d output a Body with zero Kind", i))
	}
	publish(&t.bodies, &t.mu, len(t.has))[i] = b
	if boxed := loaded(&t.boxed); boxed != nil {
		boxed[i] = nil
	}
	return t.mark(i)
}

// SetBoxed stores v in slot i's boxed escape, replacing whatever the slot
// held, and reports whether it is the slot's first output. Engines call it
// for the values Encode refuses.
func (t *Table) SetBoxed(i int, v any) bool {
	if bodies := loaded(&t.bodies); bodies != nil {
		bodies[i] = wire.Body{}
	}
	publish(&t.boxed, &t.mu, len(t.has))[i] = v
	return t.mark(i)
}

func (t *Table) mark(i int) bool {
	first := !t.has[i]
	t.has[i] = true
	return first
}

// Reset empties every slot, keeping both slabs for the next run.
func (t *Table) Reset() {
	clear(t.has)
	clear(loaded(&t.bodies))
	clear(loaded(&t.boxed))
}

// Map materializes every set slot's decoded value, keyed by base + slot.
// With w > 1, w goroutines decode contiguous slot ranges into a per-slot
// scratch column first and the map is filled from it afterwards; w = 1
// decodes straight into the map. Decoders must be safe to call
// concurrently (they are pure functions of the body); a decode panic
// reaches the caller either way.
func (t *Table) Map(base graph.NodeID, w int) map[graph.NodeID]any {
	out := make(map[graph.NodeID]any, Count(t.has))
	bodies, boxed := loaded(&t.bodies), loaded(&t.boxed)
	if w <= 1 {
		for i, has := range t.has {
			if has {
				out[base+graph.NodeID(i)] = decodeSlot(at(bodies, i), at(boxed, i))
			}
		}
		return out
	}
	vals := make([]any, len(t.has))
	execpolicy.FanOut(w, make([]any, w), func(k int) {
		for i := k * len(vals) / w; i < (k+1)*len(vals)/w; i++ {
			if t.has[i] {
				vals[i] = decodeSlot(at(bodies, i), at(boxed, i))
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
// the has-bit column, bodies the typed values, and boxed the values of the
// set slots whose body is zero (nil when there are none). With own the
// slices are copies the caller may keep across Reset; otherwise they alias
// the table. DecodeDense turns the triple into Map's form.
func (t *Table) Dense(own bool) (bodies []wire.Body, set []bool, boxed map[graph.NodeID]any) {
	bodies, set = loaded(&t.bodies), t.has
	switch {
	case bodies == nil:
		bodies = make([]wire.Body, len(t.has))
	case own:
		bodies = slices.Clone(bodies)
	}
	if own {
		set = slices.Clone(set)
	}
	escapes := loaded(&t.boxed)
	for i, has := range t.has {
		if has && bodies[i].Kind == 0 {
			if boxed == nil {
				boxed = make(map[graph.NodeID]any)
			}
			boxed[graph.NodeID(i)] = at(escapes, i)
		}
	}
	return bodies, set, boxed
}

// DecodeDense materializes the decoded output map of a Dense triple.
func DecodeDense(bodies []wire.Body, set []bool, boxed map[graph.NodeID]any) map[graph.NodeID]any {
	out := make(map[graph.NodeID]any, Count(set))
	for i, has := range set {
		if has {
			out[graph.NodeID(i)] = decodeSlot(bodies[i], boxed[graph.NodeID(i)])
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

// Each calls fn with every set slot's typed body in slot order. A boxed
// slot has no encoded form and ends the walk with an error.
func (t *Table) Each(fn func(i int, b wire.Body)) error {
	for i, has := range t.has {
		if !has {
			continue
		}
		b, err := t.typed(i)
		if err != nil {
			return err
		}
		fn(i, b)
	}
	return nil
}

// typed returns set slot i's body, or an error if the slot is boxed.
func (t *Table) typed(i int) (wire.Body, error) {
	b := at(loaded(&t.bodies), i)
	if b.Kind == 0 {
		return b, fmt.Errorf("outval: slot %d holds a boxed %T; only outval-encodable outputs have an encoded form", i, at(loaded(&t.boxed), i))
	}
	return b, nil
}

// Record codes slot i's frame record: the has-bit, then the typed body
// if the slot is set. A boxed output has no record, so saving refuses it.
// Loading refuses a kind no decoder knows (it would restore, then panic at
// the Result boundary) and a segment, which no decoder reads and nothing
// would release; loading into i < 0 skips the record, for a node another
// engine hosts, without carving its segment.
func (t *Table) Record(c *wire.Coder, i int) error {
	var has bool
	var b wire.Body
	if !c.Loading() && t.has[i] {
		var err error
		if b, err = t.typed(i); err != nil {
			return err
		}
		has = true
	}
	if c.Bool(&has); !has {
		return nil
	}
	if i < 0 {
		c.SkipBody()
		return nil
	}
	if c.Body(&b); !c.Loading() || c.Failed() {
		return nil
	}
	if !Known(b.Kind) {
		c.Fail("slot %d output record has kind %d, which no decoder is registered for", i, b.Kind)
	} else if b.Seg != (wire.Seg{}) {
		c.Fail("slot %d output record carries a segment", i)
	} else {
		t.SetBody(i, b)
	}
	return nil
}

// publish returns the slab p points to, allocating and publishing an
// n-slot one on first use. The double-checked lock makes one allocation
// win when workers race to the first output.
func publish[T any](p *atomic.Pointer[[]T], mu *sync.Mutex, n int) []T {
	if s := p.Load(); s != nil {
		return *s
	}
	mu.Lock()
	defer mu.Unlock()
	if s := p.Load(); s != nil {
		return *s
	}
	s := make([]T, n)
	p.Store(&s)
	return s
}

// loaded returns the slab p points to, or nil before its first use.
func loaded[T any](p *atomic.Pointer[[]T]) []T {
	if s := p.Load(); s != nil {
		return *s
	}
	return nil
}

// at reads s[i], or the zero value from a slab not yet allocated.
func at[T any](s []T, i int) (v T) {
	if s != nil {
		v = s[i]
	}
	return v
}
