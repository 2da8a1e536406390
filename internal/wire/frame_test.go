package wire

import (
	"bytes"
	"testing"
)

func TestBodyRawRoundTrip(t *testing.T) {
	b := Body{Kind: 7, Sub: 9, P: -3, A: 1, B: -2, C: 1 << 40, D: -1 << 50}
	enc := appendBody(nil, b)
	if len(enc) != bodyWireSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), bodyWireSize)
	}
	if got := decodeBody(enc); got != b {
		t.Fatalf("round trip %+v -> %+v", b, got)
	}
	// Decoding from an odd offset must still work: frames land at
	// arbitrary positions in a socket read buffer.
	shifted := append(make([]byte, 3), enc...)
	if got := decodeBody(shifted[3:]); got != b {
		t.Fatalf("unaligned round trip %+v -> %+v", b, got)
	}
}

func TestBodySegRoundTrip(t *testing.T) {
	var src, dst Arena
	for _, n := range []int{0, 1, 5, 1000} {
		b := Body{Kind: 3, A: int64(n)}
		if n > 0 {
			seg, w := src.Alloc(n)
			for i := range w {
				w[i] = int32(i * 3)
			}
			b.Seg = seg
		}
		enc := appendBodySeg(nil, b, &src)
		if len(enc) != bodyWireSize+4*n {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(enc), bodyWireSize+4*n)
		}
		d := NewDec(enc, &dst)
		got := d.Body()
		if err := d.Err(); err != nil || d.Remaining() != 0 {
			t.Fatalf("n=%d: decode left %d/%d bytes, err %v", n, d.Remaining(), len(enc), err)
		}
		if got.Seg.Len() != n {
			t.Fatalf("n=%d: re-homed seg has %d words", n, got.Seg.Len())
		}
		if n > 0 {
			w := dst.Data(got.Seg)
			for i := range w {
				if w[i] != int32(i*3) {
					t.Fatalf("n=%d: word %d = %d after re-homing", n, i, w[i])
				}
			}
			dst.Release(got.Seg)
		}
		got.Seg, b.Seg = Seg{}, Seg{}
		if got != b {
			t.Fatalf("n=%d: scalar fields %+v -> %+v", n, b, got)
		}
	}
	if dst.Live() != 0 {
		t.Fatalf("receiving arena leaks %d segments", dst.Live())
	}
	// Truncated buffers error instead of panicking.
	b := Body{Kind: 1}
	seg, _ := src.Alloc(4)
	b.Seg = seg
	enc := appendBodySeg(nil, b, &src)
	for _, cut := range []int{0, bodyWireSize - 1, bodyWireSize + 3, len(enc) - 1} {
		if d := NewDec(enc[:cut], &dst); d.Body() != (Body{}) || d.Err() == nil {
			t.Fatalf("cut=%d: truncated frame decoded without error", cut)
		}
	}
	if !bytes.Equal(appendBody(nil, Body{}), make([]byte, bodyWireSize)) {
		t.Fatal("zero Body does not encode to zero bytes")
	}
}

// TestBoolRejectsOtherBytes: a flag byte is 0 or 1, so any other byte
// fails the decoder instead of reading as true.
func TestBoolRejectsOtherBytes(t *testing.T) {
	for _, tc := range []struct {
		b    byte
		want bool
		ok   bool
	}{{0, false, true}, {1, true, true}, {2, false, false}, {0xff, false, false}} {
		d := NewDec([]byte{tc.b}, nil)
		if got := d.Bool(); got != tc.want || (d.Err() == nil) != tc.ok {
			t.Errorf("byte %d: Bool() = %v, err %v; want %v, ok=%v", tc.b, got, d.Err(), tc.want, tc.ok)
		}
	}
}

// TestBodyWithoutArenaKeepsHandle: an Enc and a Dec without an arena carry
// a Body's raw image, segment handle verbatim — the copy shares the
// original's segment and carves nothing.
func TestBodyWithoutArenaKeepsHandle(t *testing.T) {
	var a Arena
	seg, _ := a.Alloc(6)
	b := Body{Kind: 5, A: 9, Seg: seg}
	var e Enc
	e.Body(b)
	if !bytes.Equal(e.Bytes(), appendBody(nil, b)) {
		t.Fatal("arena-less Enc.Body is not the raw image")
	}
	d := NewDec(e.Bytes(), nil)
	if got := d.Body(); got != b || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("arena-less Dec.Body = %+v (err %v), want %+v", got, d.Err(), b)
	}
	if a.Live() != 1 {
		t.Fatalf("arena holds %d live segments, want the original's 1", a.Live())
	}
}
