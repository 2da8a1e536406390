package wire

import (
	"errors"
	"fmt"
	"math"
)

// Snapshot codec: the byte plane engine and protocol state serializes
// through when a run is checkpointed (async.Sim.Snapshot, syncrun.Runner
// Snapshot, the shard coordinator's distributed snapshot) and the common
// carrier for per-protocol state codecs (StateCodec).
//
// The codec is deliberately primitive — fixed-width little-endian scalars,
// length-prefixed strings and blobs, and Body values in the same raw-image
// form the cross-shard frame plane uses (appendBodySeg: the 48-byte image
// plus the referenced arena segment's words inlined) — because snapshot
// frames share the wire plane's contract: a same-machine format whose
// encode path is memcpy, not a portable storage schema.
//
// Enc is append-only and infallible. Dec carries a sticky error: the first
// short read or failed validation latches, every later read returns the
// zero value, and the caller checks Err() once at the end — per-protocol
// state methods therefore contain no error plumbing, yet a
// truncated or corrupted frame surfaces as a clean error, never a panic or
// a type confusion.
//
// The arena decides what a Body carries. An Enc or Dec with an arena
// inlines a segment's words and re-homes them on decode — the form that
// outlives the process (snapshots, shard frames). One without an arena
// carries the Body's raw image, segment handle verbatim, as RawBody does:
// the form of an in-process state copy (ModeSpec's per-round clones),
// where the copy must share the original's segments rather than carve new
// ones.

// Enc is the snapshot encoder: an append-based buffer plus the arena
// segment-carrying Bodies resolve against.
type Enc struct {
	buf   []byte
	arena *Arena
	c     Coder
}

// NewEnc returns an encoder whose Body calls resolve segments against a
// (nil: Body writes the handle image, as RawBody does).
func NewEnc(a *Arena) *Enc { return &Enc{arena: a} }

// Reset empties the encoder, keeping its buffer capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded stream (valid until the next Reset/append).
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// I32 appends a little-endian int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as a 64-bit value.
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Body appends b in frame form: the raw image with its segment words
// inlined (appendBodySeg). Decode with Dec.Body, which re-homes the
// segment into the receiving arena. Without an arena it appends the raw
// image alone, segment handle verbatim (see RawBody).
func (e *Enc) Body(b Body) {
	if e.arena == nil {
		e.RawBody(b)
		return
	}
	e.buf = appendBodySeg(e.buf, b, e.arena)
}

// Raw appends pre-encoded bytes verbatim: flat state rows (reg, gather)
// and frames the shard coordinator routes without decoding.
func (e *Enc) Raw(b []byte) { e.buf = append(e.buf, b...) }

// RawBody appends b's raw 48-byte image, segment handle verbatim and
// contents not inlined. For record-only bodies (trace entries) whose
// segments are never resolved after restore.
func (e *Enc) RawBody(b Body) { e.buf = appendBody(e.buf, b) }

// BeginBlob reserves a u32 length prefix for a nested blob and returns its
// patch mark. The matching EndBlob back-patches the length, making the
// blob skippable (Dec.SkipBlob) and verifiable (Dec.BeginBlob/EndBlob)
// without understanding its contents — the property a resumed shard
// engine relies on to step over the state of nodes it does not host.
func (e *Enc) BeginBlob() int {
	mark := len(e.buf)
	e.U32(0)
	return mark
}

// EndBlob back-patches the length prefix reserved by BeginBlob.
func (e *Enc) EndBlob(mark int) {
	n := uint32(len(e.buf) - mark - 4)
	e.buf[mark] = byte(n)
	e.buf[mark+1] = byte(n >> 8)
	e.buf[mark+2] = byte(n >> 16)
	e.buf[mark+3] = byte(n >> 24)
}

// Dec is the snapshot decoder; build with NewDec, or Reset a retained
// one. All reads return the zero value once the sticky error latches.
type Dec struct {
	b      []byte
	off    int
	arena  *Arena
	failed bool
	reason string
	c      Coder
}

// NewDec returns a decoder over b whose Body calls re-home segments into a
// (nil: Body reads the handle image, as RawBody does).
func NewDec(b []byte, a *Arena) *Dec { return &Dec{b: b, arena: a} }

// Reset rearms the decoder over b, clearing the sticky error — the
// allocation-free form of NewDec for callers that decode on a hot path
// (each speculative worker clones handlers through a retained Enc/Dec
// pair).
func (d *Dec) Reset(b []byte, a *Arena) {
	*d = Dec{b: b, arena: a}
}

// Err returns the sticky error, or nil if every read so far succeeded.
func (d *Dec) Err() error {
	if !d.failed {
		return nil
	}
	return fmt.Errorf("wire: snapshot decode: %s", d.reason)
}

// Failed reports whether the sticky error has latched.
func (d *Dec) Failed() bool { return d.failed }

// Fail latches a validation error (Coder.Fail in a state method, for
// semantic checks the raw codec cannot see: out-of-range ids, impossible
// counts). The first failure wins.
func (d *Dec) Fail(format string, args ...any) {
	if d.failed {
		return
	}
	d.failed = true
	d.reason = fmt.Sprintf(format, args...)
}

// Remaining returns the number of unread bytes (0 after failure).
func (d *Dec) Remaining() int {
	if d.failed {
		return 0
	}
	return len(d.b) - d.off
}

// need reports whether n more bytes can be read, failing d when they
// cannot. It inlines into every read; the failure is out of line.
func (d *Dec) need(n int) bool {
	if !d.failed && len(d.b)-d.off >= n {
		return true
	}
	d.truncated(n)
	return false
}

func (d *Dec) truncated(n int) {
	d.Fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a Bool-encoded byte. Any byte but 0 and 1 fails d, so every
// frame a LoadState accepts saves back identically.
func (d *Dec) Bool() bool {
	if !d.need(1) {
		return false
	}
	b := d.b[d.off]
	d.off++
	if b > 1 {
		d.Fail("flag byte %d at offset %d", b, d.off-1)
	}
	return b == 1
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	b := d.b[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// I32 reads a little-endian int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	b := d.b[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an Int-encoded value.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads an IEEE-754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// Raw reads n bytes verbatim — the counterpart of Enc.Raw for sections
// whose length the reader derives from state it already holds. The result
// aliases the input; copy it to keep it.
func (d *Dec) Raw(n int) []byte {
	if n < 0 {
		d.Fail("raw section of %d bytes", n)
	}
	if !d.need(n) {
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Body decodes an Enc.Body frame, re-homing any inlined segment into the
// decoder's arena. A caller whose restore fails resets the arena, so the
// segment does not leak. A frame whose declared segment length exceeds the
// remaining input (or the arena's class bound) fails cleanly before any
// allocation. Without an arena it reads the raw image (see RawBody).
func (d *Dec) Body() Body {
	if d.arena == nil {
		return d.RawBody()
	}
	if raw := d.SkipBody(); raw != nil {
		return rehome(raw, d.arena)
	}
	return Body{}
}

// SkipBody advances past an Enc.Body frame without re-homing its segment,
// returning the raw frame bytes (re-encodable verbatim with Enc.Raw).
func (d *Dec) SkipBody() []byte {
	if !d.need(bodyWireSize) {
		return nil
	}
	n := d.segLen()
	if n < 0 {
		return nil
	}
	total := bodyWireSize + 4*n
	if !d.need(total) {
		return nil
	}
	raw := d.b[d.off : d.off+total]
	d.off += total
	return raw
}

// segLen returns the segment length the Body image at d's offset declares,
// failing d (and returning -1) on one Enc.Body cannot have written: a
// length past the arena's class bound, where Arena.Alloc would panic, or a
// handle with no words that is not the zero Seg.
func (d *Dec) segLen() int {
	seg := decodeBody(d.b[d.off:]).Seg
	if n := seg.Len(); n == 0 && seg != (Seg{}) {
		d.Fail("body segment handle %+v with no words", seg)
	} else if n < 0 || n >= 1<<(maxClass-1) {
		d.Fail("body segment of %d words out of range", n)
	} else {
		return n
	}
	return -1
}

// RawBody decodes an Enc.RawBody image (segment handle verbatim).
func (d *Dec) RawBody() Body {
	if !d.need(bodyWireSize) {
		return Body{}
	}
	b := decodeBody(d.b[d.off:])
	d.off += bodyWireSize
	return b
}

// BeginBlob reads a blob's length prefix and returns the absolute offset
// at which the blob must end; pass it to EndBlob after decoding the
// contents. A length pointing past the input fails immediately.
func (d *Dec) BeginBlob() int {
	n := int(d.U32())
	if d.failed {
		return d.off
	}
	end := d.off + n
	if n < 0 || end > len(d.b) {
		d.Fail("blob of %d bytes exceeds remaining input %d", n, len(d.b)-d.off)
		return d.off
	}
	return end
}

// EndBlob verifies the decode consumed exactly the blob returned by
// BeginBlob — a codec that reads more or less than its SaveState wrote is
// a bug surfaced here, not silent frame skew.
func (d *Dec) EndBlob(end int) {
	if d.failed {
		return
	}
	if d.off != end {
		d.Fail("blob length mismatch: decoder stopped at %d, blob ends at %d", d.off, end)
	}
}

// SkipBlob reads a blob's length prefix and returns its raw contents
// without interpreting them (how a foreign node's state, or a cross-shard
// event frame in transit through the coordinator, is stepped over).
func (d *Dec) SkipBlob() []byte {
	end := d.BeginBlob()
	if d.failed {
		return nil
	}
	raw := d.b[d.off:end]
	d.off = end
	return raw
}

// StateCodec is the per-protocol state contract of the snapshot plane:
// anything owning mutable per-node protocol state — an async Handler, a
// syncrun Handler, a Mux module — implements it to become checkpointable.
// SaveState appends the complete mutable state; LoadState reads exactly
// that stream back into the receiver, replacing (not merging with) its
// current state. Both are one-line wrappers that run the type's one state
// method through e.Coder() or d.Coder(), so they cannot disagree (see
// Coder). The receiver need not be fresh — async.Sim.Restore loads into
// the handlers a run already has, whatever state they reached — and must
// end identical to the saved instance either way. Immutable per-node
// configuration (ids, topology, bounds) is already present in the
// receiver — both calls run on instances built by the same constructor —
// and stays out of the stream. LoadState reports corruption via the
// decoder's sticky error (Coder.Fail for semantic checks); it must not
// panic on malformed input.
type StateCodec interface {
	SaveState(e *Enc)
	LoadState(d *Dec)
}

// Snapshot container framing: magic, version, payload length, and an
// FNV-1a checksum over the payload. OpenSnapshot rejects anything that
// does not round-trip — bit corruption surfaces here, truncation either
// here or as a Dec sticky error.
const (
	snapMagic = 0x50414e53 // "SNAP", little-endian
	// snapVersion 2: the synchronizer modules (core/reg/gather) write their
	// flat slot-indexed state; version-1 frames carried sorted map dumps.
	snapVersion = 2
)

// ErrSnapVersion is what OpenSnapshot's error wraps when a frame is intact
// but was written under a different snapVersion.
var ErrSnapVersion = errors.New("wire: snapshot version mismatch")

// snapHeaderLen is the sealed-frame overhead: magic, version, payload
// length, checksum.
const snapHeaderLen = 4 + 4 + 8 + 8

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// SnapshotEnc encodes one sealed snapshot frame: an Enc whose buffer
// starts with the container header, reserved until Seal fills it in. The
// frame is so written once, with no payload copy at the end. Do not Reset
// the embedded Enc: that drops the reserved header.
type SnapshotEnc struct{ Enc }

// NewSnapshotEnc returns a SnapshotEnc with room for sizeHint payload
// bytes; a good hint (the previous frame's length) makes its buffer one
// allocation.
func NewSnapshotEnc(a *Arena, sizeHint int) *SnapshotEnc {
	buf := make([]byte, snapHeaderLen, snapHeaderLen+max(sizeHint, 0))
	return &SnapshotEnc{Enc{buf: buf, arena: a}}
}

// Seal fills in the reserved container header — magic, version, payload
// length and checksum — and returns the sealed frame.
func (e *SnapshotEnc) Seal() []byte {
	payload := e.buf[snapHeaderLen:]
	h := Enc{buf: e.buf[:0]} // appends rewrite the reserved bytes in place
	h.U32(snapMagic)
	h.U32(snapVersion)
	h.U64(uint64(len(payload)))
	h.U64(fnv1a(payload))
	return e.buf
}

// OpenSnapshot validates a sealed frame and returns its payload (aliasing
// data). It rejects bad magic, unknown versions, truncation, trailing
// garbage, and checksum mismatches.
func OpenSnapshot(data []byte) ([]byte, error) {
	if len(data) < snapHeaderLen {
		return nil, fmt.Errorf("wire: snapshot of %d bytes is shorter than its %d-byte header", len(data), snapHeaderLen)
	}
	d := NewDec(data, nil)
	if m := d.U32(); m != snapMagic {
		return nil, fmt.Errorf("wire: bad snapshot magic %#x", m)
	}
	if v := d.U32(); v != snapVersion {
		return nil, fmt.Errorf("%w: frame is version %d, this build reads %d", ErrSnapVersion, v, snapVersion)
	}
	n := d.U64()
	sum := d.U64()
	payload := data[snapHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("wire: snapshot payload is %d bytes, header declares %d", len(payload), n)
	}
	if got := fnv1a(payload); got != sum {
		return nil, fmt.Errorf("wire: snapshot checksum mismatch (%#x != %#x): corrupted frame", got, sum)
	}
	return payload, nil
}
