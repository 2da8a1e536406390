package wire

import (
	"testing"
)

// FuzzFrameRoundTrip drives arbitrary payloads through Frame/Unframe and
// requires lossless round-tripping, segment handle included. The seeds
// cover the kinds and word shapes every protocol in the repository
// actually produces (signals, node-id words, negative sentinels, int64
// weights, segments).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), 0, int64(0), int64(0), int64(0), int64(0), 0)
	f.Add(uint16(1), uint16(10), 3, int64(17), int64(0), int64(0), int64(0), 0)     // bfs join
	f.Add(uint16(2), uint16(31), 9, int64(4), int64(2), int64(-1), int64(1), 0)     // leader verdict
	f.Add(uint16(1), uint16(41), 63, int64(3), int64(1<<40), int64(7), int64(9), 0) // mst moe (int64 weight)
	f.Add(uint16(7), uint16(3), 1<<20, int64(-9), int64(1<<62), int64(-1<<62), int64(5), 12)
	f.Fuzz(func(t *testing.T, outer16, inner16 uint16, pulse int, a, b, c, d int64, segLen int) {
		if pulse < 0 || pulse > 1<<30 || segLen < 0 || segLen > 1<<10 {
			return
		}
		var arena Arena
		seg, view := arena.Alloc(segLen)
		for i := range view {
			view[i] = int32(i) ^ 0x5a
		}
		inner := Body{Kind: Kind(inner16), A: a, B: b, C: c, D: d, Seg: seg}
		outer := Frame(Kind(outer16), pulse, inner)
		gotPulse, got := outer.Unframe()
		if gotPulse != pulse {
			t.Fatalf("pulse %d -> %d", pulse, gotPulse)
		}
		if got != inner {
			t.Fatalf("round trip lost data: %+v vs %+v", got, inner)
		}
		for i, v := range arena.Data(got.Seg) {
			if v != int32(i)^0x5a {
				t.Fatalf("segment corrupted at %d: %d", i, v)
			}
		}
	})
}

// FuzzArena exercises interleaved Alloc/Release sequences: every live
// segment must keep the requested length, arrive zeroed, and never alias
// another live segment's storage.
func FuzzArena(f *testing.F) {
	f.Add([]byte{3, 0, 9, 1, 0, 200, 2})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 255, 128, 64})
	f.Fuzz(func(t *testing.T, script []byte) {
		var a Arena
		type live struct {
			seg   Seg
			owner int32
		}
		var segs []live
		next := int32(1)
		for _, op := range script {
			if op%2 == 0 || len(segs) == 0 {
				n := int(op >> 1)
				seg, view := a.Alloc(n)
				if n <= 0 {
					if !seg.IsZero() {
						t.Fatal("Alloc(<=0) returned a segment")
					}
					continue
				}
				if seg.Len() != n || len(view) != n {
					t.Fatalf("Alloc(%d) returned len %d/%d", n, seg.Len(), len(view))
				}
				for i, v := range view {
					if v != 0 {
						t.Fatalf("segment not zeroed at %d: %d", i, v)
					}
					view[i] = next // stamp with owner id
				}
				segs = append(segs, live{seg: seg, owner: next})
				next++
			} else {
				i := int(op>>1) % len(segs)
				a.Release(segs[i].seg)
				segs[i] = segs[len(segs)-1]
				segs = segs[:len(segs)-1]
			}
		}
		// No live segment may have been clobbered by a recycled one.
		for _, l := range segs {
			for j, v := range a.Data(l.seg) {
				if v != l.owner {
					t.Fatalf("live segment corrupted at %d: %d vs %d", j, v, l.owner)
				}
			}
		}
	})
}
