package syncrun

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// segBounce ping-pongs a checksummed variable-length segment for `rounds`
// pulses; each receiver validates the payload inside Pulse (segments are
// recycled when the batch is consumed).
type segBounce struct {
	rounds int
	bad    int
}

func (h *segBounce) send(n API, k int) {
	seg, view := n.Arena().Alloc(3 + k%5)
	for i := range view {
		view[i] = int32(k + i)
	}
	var to graph.NodeID = 1
	if n.ID() == 1 {
		to = 0
	}
	n.Send(to, wire.Body{Kind: 1, A: int64(k), Seg: seg})
}

func (h *segBounce) Init(n API) {
	if n.ID() == 0 {
		h.send(n, 0)
	}
}

func (h *segBounce) Pulse(n API, p int, recvd []Incoming) {
	if len(recvd) == 0 {
		return
	}
	b := recvd[0].Body
	k := int(b.A)
	view := n.Arena().Data(b.Seg)
	if len(view) != 3+k%5 {
		h.bad++
	} else {
		for i, v := range view {
			if v != int32(k+i) {
				h.bad++
				break
			}
		}
	}
	if k+1 >= h.rounds {
		n.Output(k)
		return
	}
	h.send(n, k+1)
}

func TestSegmentTrafficDeliversAndRecycles(t *testing.T) {
	g := graph.Path(2)
	hs := make([]*segBounce, 2)
	r := New(g, func(id graph.NodeID) Handler {
		hs[id] = &segBounce{rounds: 400}
		return hs[id]
	})
	res := r.Run()
	if res.M != 400 {
		t.Fatalf("M = %d, want 400", res.M)
	}
	if hs[0].bad+hs[1].bad != 0 {
		t.Fatalf("%d corrupted segments", hs[0].bad+hs[1].bad)
	}
	carves, recycles := r.arena.Stats()
	if carves > 8 {
		t.Fatalf("arena carved %d segments for serialized traffic; recycling broken (recycled %d)", carves, recycles)
	}
}

// segBounceCodec is segBounce with a state codec, so a run whose in-flight
// message carries a segment can be snapshotted.
type segBounceCodec struct{ segBounce }

func (h *segBounceCodec) SaveState(e *wire.Enc) { e.Int(h.bad) }
func (h *segBounceCodec) LoadState(d *wire.Dec) { h.bad = d.Int() }

// TestTruncatedSegmentSnapshotLeaksNothing cuts a snapshot whose pending
// delivery inlines a segment at every payload offset: each Restore must
// fail and leave no arena segment live, including the cuts that fall after
// the segment was re-homed.
func TestTruncatedSegmentSnapshotLeaksNothing(t *testing.T) {
	g := graph.Path(2)
	mk := func(graph.NodeID) Handler { return &segBounceCodec{segBounce{rounds: 10}} }
	r := New(g, mk)
	r.RunPulses(3)
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	whole := New(g, mk)
	if err := whole.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if whole.arena.Live() == 0 {
		t.Fatal("the snapshot carries no segment")
	}
	payload, err := wire.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for n := range len(payload) {
		fresh := New(g, mk)
		if err := fresh.Restore(sealPayload(payload[:n])); err == nil {
			t.Fatalf("restore of %d/%d payload bytes accepted", n, len(payload))
		}
		if live := fresh.arena.Live(); live != 0 {
			t.Fatalf("restore of %d/%d payload bytes leaked %d segments", n, len(payload), live)
		}
	}
}

// sealPayload seals an already-encoded (truncated or patched) payload.
func sealPayload(p []byte) []byte {
	e := wire.NewSnapshotEnc(nil, len(p))
	e.Raw(p)
	return e.Seal()
}
