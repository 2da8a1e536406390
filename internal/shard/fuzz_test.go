package shard

import (
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// FuzzShardFrameRoundTrip drives the cross-shard event frame codec:
// encode out of one arena, decode (re-home) into another, and require the
// event to survive bit-for-bit — including oversize segments straddling
// the arena's chunk-class boundary (1<<16 words), where the copy spans
// non-contiguous chunks.
func FuzzShardFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), int32(10), int64(0), int32(3), int32(9), uint16(1), int64(42), int64(-7), 0)
	f.Add(uint8(1), int32(11), int64(2), int32(0), int32(1), uint16(2), int64(1), int64(2), 48)
	// A stage past int32: snapshots always carried it, the frame must too.
	f.Add(uint8(1), int32(11), int64(1<<40), int32(0), int32(1), uint16(2), int64(1), int64(2), 3)
	// The chunk-class boundary, one under, one over.
	f.Add(uint8(0), int32(12), int64(1), int32(5), int32(6), uint16(3), int64(0), int64(9), 65535)
	f.Add(uint8(0), int32(12), int64(1), int32(5), int32(6), uint16(3), int64(0), int64(9), 65536)
	f.Add(uint8(0), int32(12), int64(1), int32(5), int32(6), uint16(3), int64(0), int64(9), 65537)
	f.Fuzz(func(t *testing.T, kindSel uint8, proto int32, stage int64, src, dst int32, bkind uint16, a, b int64, segWords int) {
		kind := uint8(async.ShardEvDeliver)
		if kindSel&1 == 1 {
			kind = async.ShardEvAckArrive
		}
		if segWords < 0 {
			segWords = -segWords
		}
		segWords %= 1 << 17
		body := wire.Body{Kind: wire.Kind(bkind), A: a, B: b, C: a ^ b, D: -a}
		var sa wire.Arena
		if segWords > 0 {
			seg, w := sa.Alloc(segWords)
			for i := range w {
				w[i] = int32(a) ^ int32(i)
			}
			body.Seg = seg
		}
		m := async.Msg{Proto: async.Proto(proto), Stage: int(stage), Body: body}
		enc := wire.NewEnc(&sa)
		encodeEventFrame(enc, kind, graph.NodeID(src), graph.NodeID(dst), m)
		frame := enc.Bytes()

		var da wire.Arena
		dec := wire.NewDec(frame, &da)
		gotKind, gotSrc, gotDst, gotM := decodeEventFrame(dec)
		if err := finish(dec, "event frame"); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotKind != kind || gotSrc != graph.NodeID(src) || gotDst != graph.NodeID(dst) {
			t.Fatalf("envelope (%d,%d,%d) != (%d,%d,%d)", gotKind, gotSrc, gotDst, kind, src, dst)
		}
		if gotM.Proto != m.Proto || gotM.Stage != m.Stage {
			t.Fatalf("msg header (%d,%d) != (%d,%d)", gotM.Proto, gotM.Stage, m.Proto, m.Stage)
		}
		wantB, gotB := body, gotM.Body
		wantB.Seg, gotB.Seg = wire.Seg{}, wire.Seg{}
		if wantB != gotB {
			t.Fatalf("body %+v != %+v", gotB, wantB)
		}
		if gotM.Body.Seg.Len() != segWords {
			t.Fatalf("segment re-homed to %d words, want %d", gotM.Body.Seg.Len(), segWords)
		}
		if segWords > 0 {
			w := da.Data(gotM.Body.Seg)
			for i, x := range w {
				if x != int32(a)^int32(i) {
					t.Fatalf("segment word %d = %d, want %d", i, x, int32(a)^int32(i))
				}
			}
			da.Release(gotM.Body.Seg)
		}
		if live := da.Live(); live != 0 {
			t.Fatalf("receiving arena holds %d live segments after release", live)
		}

		// Any strict prefix must fail cleanly, never decode garbage.
		for _, cut := range []int{0, 20, len(frame) - 1} {
			var ta wire.Arena
			td := wire.NewDec(frame[:cut], &ta)
			if decodeEventFrame(td); td.Err() == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(frame))
			}
			if ta.Live() != 0 {
				t.Fatalf("failed decode leaked %d segments", ta.Live())
			}
		}
	})
}
