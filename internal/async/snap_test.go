package async

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// snapRelax is the round-trip test workload: multi-source BFS by monotone
// relaxation. It implements both wire.StateCodec (snapshot/restore) and
// StateCloner (ModeSpec), so a snapshot taken mid-run can be resumed under
// every execution mode. root is config — the handler constructor rebuilds
// it — so only the mutable pair (have, dist) serializes.
type snapRelax struct {
	NopAck
	root bool
	have bool
	dist int64
}

func (h *snapRelax) Init(n *Node) {
	if !h.root {
		return
	}
	h.have, h.dist = true, 0
	n.Output(int64(0))
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, Msg{Proto: 1, Body: wire.Body{Kind: 1, A: 0}})
	}
}

func (h *snapRelax) Recv(n *Node, _ graph.NodeID, m Msg) {
	nd := m.Body.A + 1
	if h.have && nd >= h.dist {
		return
	}
	h.have, h.dist = true, nd
	n.Output(nd)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, Msg{Proto: 1, Body: wire.Body{Kind: 1, A: nd}})
	}
}

func (h *snapRelax) SaveState(e *wire.Enc) {
	e.Bool(h.have)
	e.I64(h.dist)
}

func (h *snapRelax) LoadState(d *wire.Dec) {
	h.have = d.Bool()
	h.dist = d.I64()
}

func (h *snapRelax) CloneStateInto(dst Handler) {
	o := dst.(*snapRelax)
	o.have, o.dist = h.have, h.dist
}

func mkRelax(id graph.NodeID) Handler { return &snapRelax{root: id == 0} }

// snapAdversaries pairs each adversary with the fault schedules it runs
// under in the round-trip matrix.
func snapAdversaries(t *testing.T) []Adversary {
	t.Helper()
	specs := []string{"", "drop:p=0.15,budget=2,seed=7"}
	bases := []Adversary{Fixed{D: 1}, SeededRandom{Seed: 9}}
	var out []Adversary
	for _, b := range bases {
		for _, spec := range specs {
			fs, err := ParseFaultSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, WithFaults(b, fs))
		}
	}
	return out
}

// TestSnapshotRoundTripMatrix is the tentpole invariant: snapshot after
// every k-th event, restore into a fresh engine, run to the end in each
// execution mode — the continuation must be byte-identical (Result,
// outputs, PerProto, full delivery trace) to the uninterrupted run, for
// every adversary × fault-schedule cell. Snapshots are observation, not
// perturbation.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	g := graph.RandomConnected(18, 44, 3)
	for _, adv := range snapAdversaries(t) {
		t.Run(adv.Name(), func(t *testing.T) {
			ref := New(g, adv, mkRelax).KeepTrace().Run()
			modes := []ExecutionMode{ModeSingle, ModeMulti, ModeSpec}
			for k := uint64(0); ; k++ {
				a := New(g, adv, mkRelax).KeepTrace()
				done := a.RunSteps(k)
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatalf("snapshot at event %d: %v", k, err)
				}
				for _, mode := range modes {
					b := New(g, adv, mkRelax).KeepTrace()
					if err := b.Restore(snap); err != nil {
						t.Fatalf("restore at event %d: %v", k, err)
					}
					res := b.WithMode(mode).Run()
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("snapshot at event %d, resumed in mode %d: result diverged from uninterrupted run", k, mode)
					}
					if live := b.Arena().Live(); live != 0 {
						t.Fatalf("snapshot at event %d, mode %d: %d arena segments leaked", k, mode, live)
					}
				}
				if done {
					break
				}
			}
		})
	}
}

// TestSnapshotForkMatrix forks one mid-run snapshot three ways: the
// original engine continues stepping, and two restored clones run to the
// end independently. All three must agree with the uninterrupted run —
// a snapshot is a value, not a handoff.
func TestSnapshotForkMatrix(t *testing.T) {
	g := graph.RandomConnected(24, 60, 11)
	adv := Adversary(SeededRandom{Seed: 4})
	ref := New(g, adv, mkRelax).KeepTrace().Run()

	a := New(g, adv, mkRelax).KeepTrace()
	if a.RunSteps(37) {
		t.Fatal("run quiesced before the fork point; grow the graph")
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for !a.RunSteps(1 << 20) {
	}
	if res := a.FinishResult(); !reflect.DeepEqual(res, ref) {
		t.Fatal("original engine diverged after being snapshotted")
	}
	for clone := 0; clone < 2; clone++ {
		b := New(g, adv, mkRelax).KeepTrace()
		if err := b.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if res := b.Run(); !reflect.DeepEqual(res, ref) {
			t.Fatalf("clone %d diverged from uninterrupted run", clone)
		}
	}
}

// TestSnapshotReplay restores the same frame into the same engine twice:
// Restore discards prior run state, so one engine replays its own history
// deterministically.
func TestSnapshotReplay(t *testing.T) {
	g := graph.RandomConnected(20, 50, 8)
	adv := Adversary(Flaky{Seed: 2})
	ref := New(g, adv, mkRelax).Run()

	a := New(g, adv, mkRelax)
	a.RunSteps(25)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := New(g, adv, mkRelax)
	for replay := 0; replay < 2; replay++ {
		if err := b.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if res := b.Run(); !reflect.DeepEqual(res, ref) {
			t.Fatalf("replay %d diverged", replay)
		}
	}
}

// TestSnapshotPreRun pins the inited header bit: a snapshot taken before
// any event ran restores into an engine that still owes its handlers
// their Init calls.
func TestSnapshotPreRun(t *testing.T) {
	g := graph.RandomConnected(16, 36, 6)
	adv := Adversary(Fixed{D: 1})
	ref := New(g, adv, mkRelax).Run()

	snap, err := New(g, adv, mkRelax).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := New(g, adv, mkRelax)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if res := b.Run(); !reflect.DeepEqual(res, ref) {
		t.Fatal("pre-run snapshot did not reproduce a from-scratch run")
	}
}

// TestSnapshotErrors pins the validation surface: mismatched engine shape
// or configuration is rejected with the engine left reset and leak-free,
// and a non-codec handler fails at Snapshot time, not at restore.
func TestSnapshotErrors(t *testing.T) {
	g := graph.RandomConnected(16, 36, 6)
	adv := Adversary(Fixed{D: 1})
	a := New(g, adv, mkRelax)
	a.RunSteps(10)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		sim  *Sim
	}{
		{"wrong-graph", New(graph.RandomConnected(17, 36, 6), adv, mkRelax)},
		{"wrong-adversary", New(g, SeededRandom{Seed: 1}, mkRelax)},
		{"wrong-trace-flag", New(g, adv, mkRelax).KeepTrace()},
	}
	for _, tc := range bad {
		if err := tc.sim.Restore(snap); err == nil {
			t.Errorf("%s: restore accepted a mismatched snapshot", tc.name)
		} else if live := tc.sim.arena.Live(); live != 0 {
			t.Errorf("%s: failed restore leaked %d arena segments", tc.name, live)
		}
	}

	// Truncation and corruption must error cleanly, never panic.
	for _, n := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
		b := New(g, adv, mkRelax)
		if err := b.Restore(snap[:n]); err == nil {
			t.Errorf("restore of %d/%d bytes accepted", n, len(snap))
		} else if live := b.arena.Live(); live != 0 {
			t.Errorf("truncated restore at %d bytes leaked %d segments", n, live)
		}
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x10
	if err := New(g, adv, mkRelax).Restore(flipped); err == nil {
		t.Error("restore accepted a corrupted snapshot (checksum miss)")
	}

	// Frame sets. A resumed shard engine reads every frame of a distributed
	// snapshot and keeps the records it hosts, so what it must refuse is a set
	// that does not add up, not a record that is someone else's.
	open := func(s *Sim) []byte {
		t.Helper()
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		p, err := wire.OpenSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	payload := open(a)
	upper := New(g.Subrange(8, 16), adv, mkRelax)
	upper.BeginShard()
	upper.ShardInit() // hosts no root: nothing staged, the frame is complete
	upperEnc := wire.NewEnc(upper.Arena())
	if err := upper.ShardSnapshotFrame(upperEnc); err != nil {
		t.Fatal(err)
	}
	nodeAt, linkAt, eventAt := firstRecordOffsets(t, payload)
	patched := func(off int, id int32) []byte {
		p := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(p[off:], uint32(id))
		return p
	}
	shardOf := func() *Sim { // hosts [8,16): every patched record below is foreign to it
		s := New(g.Subrange(8, 16), adv, mkRelax)
		s.BeginShard()
		return s
	}
	for _, tc := range []struct {
		name   string
		sim    *Sim
		frames [][]byte
		want   string
	}{
		{"frame-missing", New(g, adv, mkRelax), [][]byte{upperEnc.Bytes()}, "8 node records of the 16"},
		{"no-frames", New(g, adv, mkRelax), nil, "0 node records of the 16"},
		{"frame-twice", New(g, adv, mkRelax), [][]byte{payload, payload}, "node 0 has two records"},
		{"inited-disagrees", New(g, adv, mkRelax), [][]byte{payload, open(New(g, adv, mkRelax))}, "disagree on whether Init ran"},
		{"trace-flag-disagrees", New(g, adv, mkRelax), [][]byte{payload, open(New(g, adv, mkRelax).KeepTrace())}, "traced=true"},
		{"node-id-outside", shardOf(), [][]byte{patched(nodeAt, 16)}, "node record 16 outside"},
		{"link-id-outside", shardOf(), [][]byte{patched(linkAt, -1)}, "link record -1->"},
		{"event-id-outside", shardOf(), [][]byte{patched(eventAt, 1<<20)}, "outside the 16-node graph"},
	} {
		if err := tc.sim.decodeEngine(tc.frames); err == nil {
			t.Errorf("%s: frame set accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The same frame unpatched restores into that shard engine: foreign
	// records are skipped, its own eight nodes are all found.
	if err := shardOf().ShardRestoreFrames([][]byte{payload}); err != nil {
		t.Errorf("shard engine refused a whole-graph frame: %v", err)
	}

	// floodHandler clones but does not codec: Snapshot must refuse it.
	nc := New(g, adv, func(graph.NodeID) Handler { return &floodHandler{} })
	nc.RunSteps(5)
	if _, err := nc.Snapshot(); err == nil {
		t.Error("Snapshot accepted a handler without wire.StateCodec")
	}
}

// firstRecordOffsets walks an engine frame's sections and returns the byte
// offsets of the first node record's id, the first link record's sender and
// the first event record's source (the frame must hold one of each).
func firstRecordOffsets(t *testing.T, frame []byte) (node, link, event int) {
	t.Helper()
	d := wire.NewDec(frame, nil)
	at := func() int { return len(frame) - d.Remaining() }
	d.U32() // header: n, adversary, lookahead, traced, inited
	d.Str()
	d.Raw(8 + 1 + 1)
	d.Raw(2*8 + 7*8 + 8) // clocks, eventSq + six counters, outCount
	d.Raw(8 * int(d.U32()))
	nNodes := int(d.U32())
	node = at()
	for i := 0; i < nNodes; i++ {
		d.I32()
		if d.Bool() {
			d.SkipBody()
		}
		d.SkipBlob()
	}
	link = at() + 4 // past the link blob's length prefix
	d.SkipBlob()
	nLinks, nEvents := d.U32(), d.U32()
	event = at() + 1 + 1 + 8 + 8 // past kind, attempt, t, seq
	if d.Failed() || nNodes == 0 || nLinks == 0 || nEvents == 0 {
		t.Fatalf("frame lacks a node, link or event record (%d/%d/%d, err %v)", nNodes, nLinks, nEvents, d.Err())
	}
	return node, link, event
}

// versionOneFrame seals payload the way a SnapVersion-1 build did: the
// container header written out by hand (magic "SNAP", version, payload
// length, FNV-1a of the payload), everything valid but the version.
func versionOneFrame(payload []byte) []byte {
	sum := uint64(14695981039346656037)
	for _, c := range payload {
		sum = (sum ^ uint64(c)) * 1099511628211
	}
	frame := []byte{'S', 'N', 'A', 'P', 1, 0, 0, 0}
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint64(frame, sum)
	return append(frame, payload...)
}

// TestSnapshotVersionMismatch: version-1 frames (the synchronizer modules'
// sorted map dumps) are refused by the container check, before Restore
// touches the engine — a mid-run engine handed one carries on unharmed.
func TestSnapshotVersionMismatch(t *testing.T) {
	g := graph.RandomConnected(16, 36, 6)
	adv := Adversary(Fixed{D: 1})
	want := New(g, adv, mkRelax).Run()

	a := New(g, adv, mkRelax)
	a.RunSteps(10)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	old := versionOneFrame(payload)
	if _, err := wire.OpenSnapshot(old); !errors.Is(err, wire.ErrSnapVersion) {
		t.Fatalf("OpenSnapshot(version-1 frame) = %v, want ErrSnapVersion", err)
	}
	if err := a.Restore(old); !errors.Is(err, wire.ErrSnapVersion) {
		t.Fatalf("Restore(version-1 frame) = %v, want ErrSnapVersion", err)
	}
	for !a.RunSteps(1 << 20) {
	}
	if got := a.FinishResult(); !reflect.DeepEqual(got, want) {
		t.Fatal("a refused version-1 frame disturbed the running engine")
	}
}

// TestSnapshotSegRoundTrip covers segment-carrying state: events in flight
// at the snapshot hold arena payloads, which the frame inlines and the
// restoring engine re-carves. The restored run must agree and both
// engines must end with zero live segments.
func TestSnapshotSegRoundTrip(t *testing.T) {
	const words = 9
	mk := func(id graph.NodeID) Handler { return &segRelay{root: id == 0, words: words} }
	g := graph.RandomConnected(14, 30, 5)
	adv := Adversary(SeededRandom{Seed: 12})
	ref := New(g, adv, mk).Run()

	for _, k := range []uint64{0, 5, 17, 40} {
		a := New(g, adv, mk)
		a.RunSteps(k)
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at event %d: %v", k, err)
		}
		b := New(g, adv, mk)
		if err := b.Restore(snap); err != nil {
			t.Fatalf("restore at event %d: %v", k, err)
		}
		if res := b.Run(); !reflect.DeepEqual(res, ref) {
			t.Fatalf("snapshot at event %d: segment run diverged", k)
		}
		if live := b.Arena().Live(); live != 0 {
			t.Fatalf("snapshot at event %d: %d segments leaked", k, live)
		}
	}
}

// segRelay floods one wave whose messages carry an arena segment; each
// receiver checksums the payload inside the delivery callback.
type segRelay struct {
	NopAck
	root  bool
	words int
	seen  bool
}

func (h *segRelay) flood(n *Node) {
	for _, nb := range n.Neighbors() {
		seg, w := n.Arena().Alloc(h.words)
		for i := range w {
			w[i] = int32(n.ID()) + int32(i)
		}
		n.Send(nb.Node, Msg{Proto: 2, Body: wire.Body{Kind: 1, A: int64(n.ID()), Seg: seg}})
	}
}

func (h *segRelay) Init(n *Node) {
	if !h.root {
		return
	}
	h.seen = true
	n.Output(int64(0))
	h.flood(n)
}

func (h *segRelay) Recv(n *Node, from graph.NodeID, m Msg) {
	w := n.Arena().Data(m.Body.Seg)
	sum := int64(0)
	for i, x := range w {
		if x != int32(from)+int32(i) {
			panic(fmt.Sprintf("async: segment corrupted across snapshot: word %d = %d from %d", i, x, from))
		}
		sum += int64(x)
	}
	if h.seen {
		return
	}
	h.seen = true
	n.Output(sum)
	h.flood(n)
}

func (h *segRelay) SaveState(e *wire.Enc) { e.Bool(h.seen) }
func (h *segRelay) LoadState(d *wire.Dec) { h.seen = d.Bool() }

// FuzzSnapshotRoundTrip feeds arbitrary bytes to Restore: any input must
// either restore an engine that runs to a clean finish or error without
// panicking, and in both cases the arena must end with zero live
// segments.
func FuzzSnapshotRoundTrip(f *testing.F) {
	g := graph.RandomConnected(12, 26, 3)
	adv := Adversary(Fixed{D: 1})
	mid := New(g, adv, mkRelax)
	mid.RunSteps(15)
	valid, err := mid.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(versionOneFrame(valid[24:])) // an intact frame from the previous SnapVersion
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(g, adv, mkRelax)
		if err := s.Restore(data); err != nil {
			if live := s.arena.Live(); live != 0 {
				t.Fatalf("failed restore leaked %d arena segments", live)
			}
			return
		}
		s.SetMaxEvents(1 << 20)
		clean := func() (ok bool) {
			// A forged-but-wellformed frame may decode into a state the
			// engine rejects at run time (time going backwards, livelock
			// ceilings); that guard firing is acceptable, corruption is
			// not. Leak accounting only applies to runs that finish.
			defer func() { ok = recover() == nil }()
			s.WithMode(ModeSingle).Run()
			return true
		}()
		if clean {
			if live := s.arena.Live(); live != 0 {
				t.Fatalf("restored run leaked %d arena segments", live)
			}
		}
	})
}
