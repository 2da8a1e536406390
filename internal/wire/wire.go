// Package wire defines the compact value message payload shared by both
// simulation engines and every protocol layer.
//
// Historically every message body in the system was an `any`: the async
// outbox slots, syncrun inboxes, and each protocol's message structs boxed
// one heap allocation per send and paid an interface type-switch per
// receive. Body replaces that with a plain value — a kind tag, a few fixed
// integer words, and an optional variable-length []int32 segment carved
// from a recycling Arena — so the send/deliver hot path of both engines
// performs zero steady-state allocations per message. Body is deliberately
// pointer-free (the segment is an 8-byte Arena handle, not a slice): the
// engine buffers that carry Bodies by value are invisible to the garbage
// collector — no scan, no write barriers on copies.
//
// # Namespaces
//
// Kind values are scoped to the protocol that carries them: the async
// engine routes by async.Proto first (via Mux), and the lockstep runner
// hosts one algorithm at a time, so two protocols may reuse the same Kind
// numbers without ambiguity.
//
// # Framing
//
// Layers that wrap another protocol's payload — the synchronizer's
// pulse-tagged algorithm messages — use Frame/Unframe. Frame stores the
// inner payload's Kind in Sub and the pulse in P, keeping the inner words
// and segment in place: framing is zero-copy and needs no extra space.
// Consequently Sub and P are RESERVED for framing layers; payload
// encoders must leave them zero (Frame panics otherwise).
//
// # Segment ownership
//
// A segment is owned by whoever holds the Body. Sending a Body transfers
// segment ownership to the engine, which releases it back to the arena
// once the message's lifecycle ends (after the ack callback in the async
// engine, after batch delivery in the lockstep runner). Three rules
// follow:
//
//   - a Body with a segment may be sent at most once; to send the same
//     payload to several neighbors, Alloc (and fill) once per send;
//   - a receiver that wants data from a delivered segment past the
//     callback must copy it out of the Arena view inside the callback;
//   - framed payloads (the synchronizer's algorithm messages) must be
//     seg-free — their delivery is deferred past the carrying message's
//     lifecycle, which would dangle the handle.
//
// Seg-free Bodies (the common case — every built-in protocol fits its
// payload in the fixed words) are unrestricted values.
package wire

// Kind identifies a message type within its protocol's namespace. Zero is
// reserved ("no message").
type Kind uint16

// Body is the universal compact message payload.
type Body struct {
	// Kind tags the payload type; the owning protocol defines the values.
	Kind Kind
	// Sub is reserved for framing layers: the framed payload's Kind.
	Sub Kind
	// P is reserved for framing layers: the framed pulse (or session).
	P int32
	// A, B, C, D are fixed integer words whose meaning is per Kind.
	A, B, C, D int64
	// Seg optionally references a variable-length segment in the run's
	// Arena (resolve with Arena.Data). The zero Seg means none. See the
	// package comment for the ownership rules.
	Seg Seg
}

// Tag returns a words-free Body of the given kind (pure signals).
func Tag(k Kind) Body { return Body{Kind: k} }

// FromBool encodes a bool into a word.
func FromBool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ToBool decodes a FromBool word.
func ToBool(w int64) bool { return w != 0 }

// Frame wraps inner as a framed payload of the given outer kind and pulse:
// the inner kind moves to Sub, the pulse to P, and the words and segment
// stay in place (zero-copy). Framing an already-framed Body panics —
// nesting is one level deep by design; deeper stacks must encode the inner
// payload into the segment explicitly.
func Frame(outer Kind, pulse int, inner Body) Body {
	if inner.Sub != 0 || inner.P != 0 {
		panic("wire: Frame of an already-framed Body")
	}
	inner.Sub = inner.Kind
	inner.Kind = outer
	inner.P = int32(pulse)
	return inner
}

// Unframe reverses Frame, returning the pulse and the inner payload.
func (b Body) Unframe() (pulse int, inner Body) {
	pulse = int(b.P)
	b.Kind = b.Sub
	b.Sub = 0
	b.P = 0
	return pulse, b
}
