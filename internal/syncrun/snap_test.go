package syncrun

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
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

// intKind is the output kind the engines store a Go int under.
var intKind = outval.Encode(0, 0).Kind

// path2Frame writes by hand the frame of codecBFS on path:2 after Init:
// node 0 has output 0 (encoded under outKind) and sent to node 1, whose
// delivery chain is listed chains times.
func path2Frame(chains int, outKind wire.Kind) []byte { return path2FrameAt(chains, outKind, 0, 0) }

// path2FrameAt is path2Frame at the given pulse, with the delivery's
// sender replaced by sender.
func path2FrameAt(chains int, outKind wire.Kind, pulse int, sender int32) []byte {
	var arena wire.Arena
	e := wire.NewSnapshotEnc(&arena, 0)
	e.U32(2)      // nodes
	e.Bool(false) // traced
	e.Bool(true)  // Init ran
	e.Int(pulse)  // pulse
	e.Int(0)      // T clock
	e.U64(1)      // messages
	e.Bool(false) // quiescent
	state := func(dist int) {
		mark := e.BeginBlob()
		e.Int(dist)
		e.EndBlob(mark)
	}
	e.Bool(true) // node 0: output 0, distance 0
	e.Body(wire.Body{Kind: outKind, A: 0})
	state(0)
	e.Bool(false) // node 1: no output yet
	state(-1)
	e.U32(uint32(chains))
	for range chains {
		e.I32(1) // receiver
		e.U32(1)
		e.I32(sender)
		e.Body(wire.Tag(1))
	}
	e.U32(2) // active: both endpoints
	e.I32(0)
	e.I32(1)
	e.U32(0) // trace
	return e.Seal()
}

// TestLockstepRestoreRejectsDuplicateChain: each receiver's batch is one
// contiguous range, so a frame that lists one receiver's deliveries twice
// is malformed. The hand-written frame with one chain must equal the
// runner's own Snapshot after Init on path:2; with the chain repeated it
// must be refused.
func TestLockstepRestoreRejectsDuplicateChain(t *testing.T) {
	g := graph.Path(2)
	a := New(g, mkCodecBFS)
	a.RunPulses(0)
	if snap, err := a.Snapshot(); err != nil || !bytes.Equal(snap, path2Frame(1, intKind)) {
		t.Fatalf("hand-written frame does not match Snapshot (err %v)", err)
	}
	if err := New(g, mkCodecBFS).Restore(path2Frame(2, intKind)); err == nil {
		t.Fatal("restore accepted a frame with two delivery chains for one node")
	}
}

// TestLockstepRestoreRejectsBadDeliveries: a pending delivery's sender
// must be a neighbor of its receiver, and the pulse clock is never
// negative. Before, senders 7 and -5 (outside path:2) and 1 (the receiver
// itself) restored and ran to the end, and pulse -3 finished with
// Rounds -1 and node 1 outputting -2.
func TestLockstepRestoreRejectsBadDeliveries(t *testing.T) {
	g := graph.Path(2)
	if err := New(g, mkCodecBFS).Restore(path2FrameAt(1, intKind, 0, 0)); err != nil {
		t.Fatalf("the runner's own frame was refused: %v", err)
	}
	for _, sender := range []int32{7, -5, 1} {
		if err := New(g, mkCodecBFS).Restore(path2FrameAt(1, intKind, 0, sender)); err == nil || !strings.Contains(err.Error(), "non-edge") {
			t.Errorf("delivery from %d to 1: err %v, want a non-edge error", sender, err)
		}
	}
	if err := New(g, mkCodecBFS).Restore(path2FrameAt(1, intKind, -3, 0)); err == nil || !strings.Contains(err.Error(), "pulse -3") {
		t.Errorf("pulse -3: err %v, want a pulse error", err)
	}
}

// TestLockstepRestoreRejectsUnknownOutputKind: an output record whose kind
// no decoder is registered for must fail Restore, not restore and then
// panic when Run materializes the Result.
func TestLockstepRestoreRejectsUnknownOutputKind(t *testing.T) {
	err := New(graph.Path(2), mkCodecBFS).Restore(path2Frame(1, 0x1234))
	if err == nil || !strings.Contains(err.Error(), "kind 4660") {
		t.Fatalf("restore of an unregistered output kind: err %v, want a kind-4660 error", err)
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

// TestLockstepRestoreRejectsFlagByte: a flag byte other than 0 or 1 — here
// the header's Init-ran flag — fails Restore instead of reading as true.
func TestLockstepRestoreRejectsFlagByte(t *testing.T) {
	g := graph.Path(9)
	a := New(g, mkCodecBFS)
	a.RunPulses(2)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Clone(payload)
	const inited = 4 + 1 // node count, traced
	if p[inited] != 1 {
		t.Fatalf("Init-ran flag at offset %d is %d, want 1", inited, p[inited])
	}
	p[inited] = 2
	if err := New(g, mkCodecBFS).Restore(sealPayload(p)); err == nil || !strings.Contains(err.Error(), "flag byte 2") {
		t.Fatalf("restore of a frame with flag byte 2: err %v, want a flag-byte error", err)
	}
}

// FuzzLockstepRestore feeds hostile payloads, sealed so they pass the
// container's checksum, to Runner.Restore, seeded with codecBFS frames at
// every pulse and their truncations. Any input must
// either fail, leaving no segment live, or restore a runner that runs to
// the end with no segment live. An accepted frame must snapshot back to
// the very same bytes, so its chains and active ids strictly ascend; one
// whose pending deliveries carry segments (which the runner's own frames
// never do here) comes back with the segments re-carved at new arena
// handles, so it must instead reach that form in one step. The one panic
// allowed is the round cap, which a forged pulse near it can reach.
func FuzzLockstepRestore(f *testing.F) {
	g := graph.Grid(3, 4)
	r := New(g, mkCodecBFS).KeepTrace()
	for pulses := 0; ; pulses++ {
		snap, err := r.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		payload, err := wire.OpenSnapshot(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)*2/3])
		if pulses > 0 && !r.RunPulses(1) {
			break
		}
		r.RunPulses(0)
	}
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := sealPayload(payload)
		s := New(g, mkCodecBFS).KeepTrace()
		if err := s.Restore(data); err != nil {
			if live := s.arena.Live(); live != 0 {
				t.Fatalf("failed restore leaked %d segments", live)
			}
			return
		}
		again, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := data
		if s.arena.Live() != 0 {
			b := New(g, mkCodecBFS).KeepTrace()
			if err := b.Restore(again); err != nil {
				t.Fatalf("the snapshot of an accepted frame is refused: %v", err)
			}
			want, again = again, nil
			if again, err = b.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again, want) {
			t.Fatal("an accepted frame snapshots back differently")
		}
		defer func() {
			if r := recover(); r != nil {
				if msg, _ := r.(string); !strings.Contains(msg, "rounds") {
					panic(r)
				}
			}
		}()
		s.WithMode(ModeSingle).Run()
		if live := s.arena.Live(); live != 0 {
			t.Fatalf("restored run leaked %d segments", live)
		}
	})
}
