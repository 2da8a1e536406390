package wire

import "unsafe"

// Cross-shard frame codec. A Body is 48 pointer-free scalar bytes, so a
// frame is its raw in-memory image plus the referenced arena segment's
// words — serialization is memcpy, which is the whole point of the typed
// wire plane at multi-process scale.
//
// Frames are a same-machine transport (unix-domain sockets between
// processes forked from one binary): byte order and struct layout are
// whatever this build uses, asserted below to be exactly bodyWireSize
// bytes with no padding. They are not a storage or network format.

// bodyWireSize is the exact in-memory (and on-wire) size of a Body.
const bodyWireSize = 48

// Compile-time layout assertions, both directions: a field added to Body
// without updating the codec fails the build rather than truncating
// frames.
var (
	_ [bodyWireSize - unsafe.Sizeof(Body{})]byte
	_ [unsafe.Sizeof(Body{}) - bodyWireSize]byte
)

// appendBody appends the raw image of b to dst. The Seg handle rides
// along verbatim; it is only meaningful to a decoder sharing the same
// arena (intra-process staging). Cross-process frames use appendBodySeg.
func appendBody(dst []byte, b Body) []byte {
	img := (*[bodyWireSize]byte)(unsafe.Pointer(&b))
	return append(dst, img[:]...)
}

// decodeBody reads the Body at the front of src (which must hold at least
// bodyWireSize bytes). The copy through a stack image keeps the unsafe
// reinterpretation on aligned memory regardless of src's alignment.
func decodeBody(src []byte) Body {
	var img [bodyWireSize]byte
	copy(img[:], src[:bodyWireSize])
	return *(*Body)(unsafe.Pointer(&img[0]))
}

// appendBodySeg appends b's raw image followed by its segment words
// resolved against a. The segment is read, not released — the caller
// decides when the local handle dies. Returns the extended buffer.
func appendBodySeg(dst []byte, b Body, a *Arena) []byte {
	dst = appendBody(dst, b)
	if b.Seg.IsZero() {
		return dst
	}
	w := a.Data(b.Seg)
	return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 4*len(w))...)
}

// rehome decodes raw, one whole frame written by appendBodySeg, re-homing
// its segment into a: a fresh segment is carved from the receiving arena,
// the wire words are copied in, and the returned Body's Seg points at the
// local copy.
func rehome(raw []byte, a *Arena) Body {
	b := decodeBody(raw)
	if n := b.Seg.Len(); n > 0 {
		seg, w := a.Alloc(n)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 4*n), raw[bodyWireSize:])
		b.Seg = seg
	}
	return b
}
