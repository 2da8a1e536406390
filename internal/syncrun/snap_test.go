package syncrun

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// codecBFS is syncBFS plus wire.StateCodec: src is config (rebuilt by the
// handler constructor), dist is the mutable state the frame carries.
type codecBFS struct {
	src  graph.NodeID
	dist int
}

func (h *codecBFS) Init(n API) {
	h.dist = -1
	if n.ID() == h.src {
		h.dist = 0
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(1))
		}
	}
}

func (h *codecBFS) Pulse(n API, p int, recvd []Incoming) {
	if h.dist >= 0 || len(recvd) == 0 {
		return
	}
	h.dist = p
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(1))
	}
}

func (h *codecBFS) SaveState(e *wire.Enc) { e.Int(h.dist) }
func (h *codecBFS) LoadState(d *wire.Dec) { h.dist = d.Int() }

func mkCodecBFS(graph.NodeID) Handler { return &codecBFS{src: 0} }

// TestLockstepSnapshotMatrix is the lockstep half of the round-trip
// invariant: snapshot after every pulse, restore into a fresh runner,
// finish in each execution mode — byte-identical to the uninterrupted run
// on every graph.
func TestLockstepSnapshotMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(17)},
		{"grid", graph.Grid(5, 8)},
		{"er", graph.RandomConnected(50, 130, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := New(tc.g, mkCodecBFS).KeepTrace().WithMode(ModeSingle).Run()
			for k := 0; ; k++ {
				a := New(tc.g, mkCodecBFS).KeepTrace()
				active := a.RunPulses(k)
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatalf("snapshot at pulse %d: %v", k, err)
				}
				for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
					b := New(tc.g, mkCodecBFS).KeepTrace()
					if err := b.Restore(snap); err != nil {
						t.Fatalf("restore at pulse %d: %v", k, err)
					}
					res := b.WithMode(mode).Run()
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("snapshot at pulse %d resumed in %s diverged from uninterrupted run", k, mode)
					}
				}
				if !active {
					break
				}
			}
		})
	}
}

// snapFramesGrid12 is the SHA-256 over every pulse-boundary Snapshot frame
// of a traced codecBFS run on grid:12x12: the pristine runner, after Init,
// and after each pulse. It was computed when each pulse's deliveries were
// threaded into per-receiver chains; how the engine stages deliveries must
// not show in the frame.
const snapFramesGrid12 = "017372cf6da2cdc89e21bf172ee5979e134d6e220571484ede74e41ae95240b0"

// TestLockstepSnapshotFormatFrozen pins the frame bytes in both modes and
// checks that Snapshot → Restore into a fresh runner → Snapshot reproduces
// each frame byte for byte.
func TestLockstepSnapshotFormatFrozen(t *testing.T) {
	g, err := graph.FromSpec("grid:12x12")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
		r := New(g, mkCodecBFS).KeepTrace().WithMode(mode).WithWorkers(3).WithMinParallel(1)
		h := sha256.New()
		frames := 0
		frame := func() {
			snap, err := r.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot %d: %v", mode, frames, err)
			}
			h.Write(snap)
			b := New(g, mkCodecBFS).KeepTrace()
			if err := b.Restore(snap); err != nil {
				t.Fatalf("%s: restore of frame %d: %v", mode, frames, err)
			}
			again, err := b.Snapshot()
			if err != nil || !bytes.Equal(again, snap) {
				t.Fatalf("%s: frame %d does not survive Restore → Snapshot (err %v)", mode, frames, err)
			}
			frames++
		}
		frame()
		for active := r.RunPulses(0); ; active = r.RunPulses(1) {
			frame()
			if !active {
				break
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != snapFramesGrid12 {
			t.Errorf("%s: %d frames hash to %s, want %s", mode, frames, got, snapFramesGrid12)
		}
	}
}

// TestLockstepRestoreRejectsDuplicateChain: each receiver's batch is one
// contiguous range, so a frame that lists one receiver's deliveries twice
// is malformed. The frame is written by hand — first with one chain, which
// must equal the runner's own Snapshot after Init on path:2, then with the
// chain repeated.
func TestLockstepRestoreRejectsDuplicateChain(t *testing.T) {
	g := graph.Path(2)
	frame := func(chains int) []byte {
		var arena wire.Arena
		e := wire.NewEnc(&arena)
		e.U32(2)      // nodes
		e.Bool(false) // traced
		e.Bool(true)  // Init ran
		e.Int(0)      // pulse
		e.Int(0)      // T clock
		e.U64(1)      // messages
		e.Bool(false) // quiescent
		state := func(dist int) {
			mark := e.BeginBlob()
			e.Int(dist)
			e.EndBlob(mark)
		}
		e.Bool(true) // node 0: output 0, distance 0
		e.Body(wire.Body{Kind: outval.KindInt, A: 0})
		state(0)
		e.Bool(false) // node 1: no output yet
		state(-1)
		e.U32(uint32(chains))
		for range chains {
			e.I32(1) // receiver
			e.U32(1)
			e.I32(0) // sender
			e.Body(wire.Tag(1))
		}
		e.U32(2) // active: both endpoints
		e.I32(0)
		e.I32(1)
		e.U32(0) // trace
		return wire.SealSnapshot(e.Bytes())
	}
	a := New(g, mkCodecBFS)
	a.RunPulses(0)
	if snap, err := a.Snapshot(); err != nil || !bytes.Equal(snap, frame(1)) {
		t.Fatalf("hand-written frame does not match Snapshot (err %v)", err)
	}
	if err := New(g, mkCodecBFS).Restore(frame(2)); err == nil {
		t.Fatal("restore accepted a frame with two delivery chains for one node")
	}
}

// TestLockstepSnapshotStepped continues a restored runner with RunPulses
// rather than Run: stepping and finishing must agree with the reference
// as well (checkpoint-of-a-checkpoint composes).
func TestLockstepSnapshotStepped(t *testing.T) {
	g := graph.Grid(6, 7)
	ref := New(g, mkCodecBFS).Run()

	a := New(g, mkCodecBFS)
	a.RunPulses(3)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := New(g, mkCodecBFS)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for b.RunPulses(2) {
	}
	if res := b.FinishResult(); !reflect.DeepEqual(res, ref) {
		t.Fatal("stepped continuation diverged from uninterrupted run")
	}
}

// TestLockstepSnapshotErrors pins the validation surface: restores into a
// used or mismatched runner are rejected, truncated frames fail cleanly,
// and non-codec handlers refuse to snapshot.
func TestLockstepSnapshotErrors(t *testing.T) {
	g := graph.Path(9)
	a := New(g, mkCodecBFS)
	a.RunPulses(2)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Restore(snap); err == nil {
		t.Error("Restore into a runner that already stepped was accepted")
	}
	if err := New(graph.Path(10), mkCodecBFS).Restore(snap); err == nil {
		t.Error("restore into a different-size graph accepted")
	}
	if err := New(g, mkCodecBFS).KeepTrace().Restore(snap); err == nil {
		t.Error("restore with a mismatched trace flag accepted")
	}
	for _, n := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
		if err := New(g, mkCodecBFS).Restore(snap[:n]); err == nil {
			t.Errorf("restore of %d/%d bytes accepted", n, len(snap))
		}
	}

	nc := New(g, func(graph.NodeID) Handler { return &syncBFS{src: 0} })
	nc.RunPulses(1)
	if _, err := nc.Snapshot(); err == nil {
		t.Error("Snapshot accepted a handler without wire.StateCodec")
	}
}
