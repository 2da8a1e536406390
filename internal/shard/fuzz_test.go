package shard

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
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
		kind := kindSel // the frame carries the event kind opaquely
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
		codeEvent(enc.Coder(), &async.ShardEvent{Kind: kind, Src: graph.NodeID(src), Dst: graph.NodeID(dst), Msg: m})
		frame := enc.Bytes()

		var da wire.Arena
		dec := wire.NewDec(frame, &da)
		var got async.ShardEvent
		codeEvent(dec.Coder(), &got)
		gotKind, gotSrc, gotDst, gotM := got.Kind, got.Src, got.Dst, got.Msg
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
			if codeEvent(td.Coder(), new(async.ShardEvent)); td.Err() == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(frame))
			}
			if ta.Live() != 0 {
				t.Fatalf("failed decode leaked %d segments", ta.Live())
			}
		}
	})
}

// FuzzShardLogRoundTrip drives the window codecs: a FLUSH of random group
// shapes — groups all local, all remote or mixed, frames with and without
// segments, an empty log, a local minimum of +Inf — must decode to what was
// encoded, and so must the OPEN a coordinator would answer it with (one
// grant run per group, each remote call routed back with its seq). Every
// strict prefix and a trailing byte must fail through finish, never panic.
func FuzzShardLogRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), true)   // empty log, nothing local
	f.Add(uint64(2), uint8(0), false)  // empty log, a local minimum
	f.Add(uint64(3), uint8(5), true)   // groups that are all remote
	f.Add(uint64(4), uint8(40), false) // many mixed groups
	f.Fuzz(func(t *testing.T, seed uint64, groups uint8, noLocal bool) {
		rng := rand.New(rand.NewPCG(seed, uint64(groups)))
		var arena wire.Arena
		frames := wire.NewEnc(&arena)
		in := flushMsg{
			hasMin:   rng.IntN(2) == 0,
			minT:     rng.Float64() * 10,
			execNs:   rng.Uint64(),
			steps:    rng.Uint64(),
			localMin: math.Inf(1),
		}
		if !noLocal {
			in.localMin = rng.Float64() * 10
		}
		for gi := 0; gi < int(groups); gi++ {
			g := logGroup{trigT: float64(gi / 3), trigSeq: rng.Uint64(), count: 1 + uint32(rng.IntN(6))}
			for idx := uint32(0); idx < g.count; idx++ {
				if !noLocal && rng.IntN(2) == 0 {
					continue
				}
				m := async.Msg{Proto: async.Proto(rng.IntN(4)), Stage: rng.IntN(3),
					Body: wire.Body{Kind: wire.Kind(1 + rng.IntN(9)), A: rng.Int64(), B: rng.Int64()}}
				if rng.IntN(4) == 0 {
					seg, w := arena.Alloc(1 + rng.IntN(5))
					for i := range w {
						w[i] = rng.Int32()
					}
					m.Body.Seg = seg
				}
				lo := frames.Len()
				codeEvent(frames.Coder(), &async.ShardEvent{Kind: uint8(1 + rng.IntN(2)),
					Src: graph.NodeID(rng.IntN(100)), Dst: graph.NodeID(rng.IntN(100)), Msg: m})
				g.remotes++
				in.remotes = append(in.remotes, logRemote{idx: idx, evT: rng.Float64() * 10,
					owner: graph.NodeID(rng.IntN(100)), frame: frames.Bytes()[lo:]})
			}
			in.groups = append(in.groups, g)
		}

		var enc wire.Enc
		in.code(enc.Coder())
		var out flushMsg
		d := wire.NewDec(enc.Bytes(), nil)
		if err := out.code(d.Coder()); err != nil {
			t.Fatal(err)
		}
		if err := finish(d, "FLUSH"); err != nil {
			t.Fatal(err)
		}
		if out.hasMin != in.hasMin || out.minT != in.minT || out.execNs != in.execNs || out.steps != in.steps ||
			out.localMin != in.localMin || !slices.Equal(out.groups, in.groups) ||
			!slices.EqualFunc(out.remotes, in.remotes, func(a, b logRemote) bool {
				return a.idx == b.idx && a.evT == b.evT && a.owner == b.owner && bytes.Equal(a.frame, b.frame)
			}) {
			t.Fatalf("FLUSH round trip:\n got %+v\nwant %+v", out, in)
		}
		rejects(t, "FLUSH", enc.Bytes(), func(d *wire.Dec) error { return out.code(d.Coder()) })

		// The OPEN: one grant run per group from a random base, and every
		// remote call routed back at its group's start plus its index.
		sent := openMsg{wStart: in.minT, snap: rng.IntN(2) == 0}
		var want []async.ShardEvent
		next, rs := rng.Uint64()>>1, in.remotes
		for _, g := range in.groups {
			sent.runs = append(sent.runs, async.ShardRun{Start: next, Len: g.count})
			for _, r := range rs[:g.remotes] {
				sent.inbound = append(sent.inbound, routed{seq: next + uint64(r.idx), evT: r.evT, frame: r.frame})
				ev := async.ShardEvent{Seq: next + uint64(r.idx), T: r.evT}
				codeEvent(wire.NewDec(r.frame, &arena).Coder(), &ev)
				want = append(want, ev)
			}
			next += uint64(g.count)
			rs = rs[g.remotes:]
		}
		enc.Reset()
		sent.code(enc.Coder())
		var open openMsg
		var da wire.Arena
		var evDec wire.Dec
		d = wire.NewDec(enc.Bytes(), nil)
		open.code(d.Coder())
		if err := finish(d, "OPEN"); err != nil {
			t.Fatal(err)
		}
		inbound, err := open.events(nil, &evDec, &da)
		if err != nil {
			t.Fatal(err)
		}
		if open.wStart != sent.wStart || open.snap != sent.snap || !slices.Equal(open.runs, sent.runs) || len(inbound) != len(want) {
			t.Fatalf("OPEN round trip: wStart %g snap %v runs %v, %d inbound; want %g %v %v, %d",
				open.wStart, open.snap, open.runs, len(inbound), sent.wStart, sent.snap, sent.runs, len(want))
		}
		for i, got := range inbound {
			w := want[i]
			if !slices.Equal(da.Data(got.Msg.Body.Seg), arena.Data(w.Msg.Body.Seg)) {
				t.Fatalf("inbound %d: segment words differ", i)
			}
			got.Msg.Body.Seg, w.Msg.Body.Seg = wire.Seg{}, wire.Seg{}
			if got != w {
				t.Fatalf("inbound %d = %+v, want %+v", i, got, w)
			}
		}
		rejects(t, "OPEN", enc.Bytes(), func(d *wire.Dec) error { open.code(d.Coder()); return nil })
	})
}

// rejects checks that decode fails on every strict prefix of payload (a
// sample of them when it is long) and on payload plus a trailing byte.
func rejects(t *testing.T, what string, payload []byte, decode func(*wire.Dec) error) {
	t.Helper()
	cuts := []int{0, len(payload) / 2, len(payload) - 1}
	if len(payload) <= 256 {
		cuts = cuts[:0]
		for n := 0; n < len(payload); n++ {
			cuts = append(cuts, n)
		}
	}
	for _, n := range cuts {
		var a wire.Arena
		d := wire.NewDec(payload[:n], &a)
		if err := decode(d); err == nil && finish(d, what) == nil {
			t.Fatalf("%s decode of a %d/%d-byte prefix succeeded", what, n, len(payload))
		}
	}
	var a wire.Arena
	d := wire.NewDec(append(payload[:len(payload):len(payload)], 0), &a)
	if err := decode(d); err == nil && finish(d, what) == nil {
		t.Fatalf("%s decode with a trailing byte succeeded", what)
	}
}
