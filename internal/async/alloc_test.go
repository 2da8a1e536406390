package async

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// allocPing drives R messages over one link, one at a time (each next send
// triggered by the previous ack), so the marginal cost between two run
// lengths is purely the per-message hot path: send, outbox, event
// push/pop, deliver, ack. Sends rotate across three protocol tags so the
// dense per-proto counters are exercised on every message — the counter
// slice must grow once per proto and never again.
type allocPing struct {
	remaining int
}

func (h *allocPing) proto() Proto { return Proto(1 + h.remaining%3) }

func (h *allocPing) Init(n *Node) {
	if n.ID() == 0 {
		h.remaining--
		n.Send(1, Msg{Proto: h.proto(), Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	}
}

func (h *allocPing) Recv(*Node, graph.NodeID, Msg) {}

func (h *allocPing) Ack(n *Node, _ graph.NodeID, m Msg) {
	if h.remaining > 0 {
		h.remaining--
		n.Send(1, Msg{Proto: h.proto(), Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	} else {
		n.Output(true)
	}
}

// TestZeroSteadyStateAllocsPerMessage is the regression test for the typed
// message plane: once the per-run structures are warm, delivering a
// message must not allocate. It measures whole-run allocations at two run
// lengths on the same topology — construction costs cancel, so the
// difference is the steady-state cost of the extra messages. With boxed
// `any` bodies this difference was ~1 alloc per message; with wire.Body it
// must be (close to) zero. The workload rotates protocol tags, so the
// dense per-proto counter slice (the map it replaced cost a hash per send)
// is pinned to zero steady-state allocations too. A small absolute slack
// absorbs runtime noise.
func TestZeroSteadyStateAllocsPerMessage(t *testing.T) {
	g := graph.Path(2)
	run := func(msgs int) func() {
		return func() {
			s := New(g, Fixed{D: 1}, func(graph.NodeID) Handler { return &allocPing{remaining: msgs} })
			res := s.Run()
			if res.Msgs != uint64(msgs) {
				t.Fatalf("sent %d messages, want %d", res.Msgs, msgs)
			}
			if len(res.PerProto) != 3 {
				t.Fatalf("per-proto breakdown %v, want 3 protos", res.PerProto)
			}
		}
	}
	const short, long = 200, 2200
	a1 := testing.AllocsPerRun(5, run(short))
	a2 := testing.AllocsPerRun(5, run(long))
	const slack = 8
	if extra := a2 - a1; extra > slack {
		t.Fatalf("the %d extra messages allocated %.1f times (%.4f allocs/msg); want 0",
			long-short, extra, extra/float64(long-short))
	}
}

// TestZeroSteadyStateAllocsReset is the engine-reuse analogue: after the
// first Run warms every structure, a Reset/Run cycle's allocations must
// not scale with the message count — the wheel, outboxes, counters, and
// arena all retain their capacity across Reset. (Each cycle still pays
// O(1) allocs plus the handler remakes; the per-message cost is pinned.)
func TestZeroSteadyStateAllocsReset(t *testing.T) {
	g := graph.Path(2)
	cycle := func(msgs int) (*Sim, func()) {
		mk := func(graph.NodeID) Handler { return &allocPing{remaining: msgs} }
		s := New(g, Fixed{D: 1}, mk)
		s.Run()
		return s, func() {
			s.Reset(Fixed{D: 1}, mk)
			if res := s.Run(); res.Msgs != uint64(msgs) {
				t.Fatalf("sent %d messages, want %d", res.Msgs, msgs)
			}
		}
	}
	const short, long = 200, 2200
	_, runShort := cycle(short)
	_, runLong := cycle(long)
	a1 := testing.AllocsPerRun(5, runShort)
	a2 := testing.AllocsPerRun(5, runLong)
	const slack = 8
	if extra := a2 - a1; extra > slack {
		t.Fatalf("the %d extra messages allocated %.1f times across Reset (%.4f allocs/msg); want 0",
			long-short, extra, extra/float64(long-short))
	}
}

// allocBurst keeps one link contended: node 0's Init queues burst messages
// to node 1 across three protocols and two stages, and every ack sends one
// more until total have gone, so the outbox holds burst-1 messages for most
// of the run. With burst 1 the same traffic never queues.
type allocBurst struct{ burst, total, sent int }

func (h *allocBurst) send(n *Node) {
	h.sent++
	n.Send(1, Msg{Proto: Proto(1 + h.sent%3), Stage: h.sent % 2, Body: wire.Body{Kind: 1, A: int64(h.sent)}})
}

func (h *allocBurst) Init(n *Node) {
	for n.ID() == 0 && h.sent < h.burst {
		h.send(n)
	}
}

func (h *allocBurst) Recv(*Node, graph.NodeID, Msg) {}

func (h *allocBurst) Ack(n *Node, _ graph.NodeID, _ Msg) {
	if h.sent < h.total {
		h.send(n)
	}
}

// slabFootprint is what an outbox slab has allocated: its chunks and the
// capacity of its free lists.
func slabFootprint(sl *outboxSlab) [8]int {
	return [8]int{
		len(sl.boxes.chunks), cap(sl.boxes.free),
		len(sl.stages.chunks), cap(sl.stages.free),
		len(sl.protos.chunks), cap(sl.protos.free),
		len(sl.msgs.chunks), cap(sl.msgs.free),
	}
}

// TestZeroOutboxAllocsAfterReset is the contended-link companion of
// TestZeroSteadyStateAllocsReset: once a run has grown the outbox slab to
// its peak, a run after Reset carves every record and queue node from the
// same chunks — the slab's footprint does not move, and the Reset/Run cycle
// allocates exactly as much as the same traffic on a link that never queues.
func TestZeroOutboxAllocsAfterReset(t *testing.T) {
	g := graph.Path(2)
	cycle := func(burst int) (*Sim, func()) {
		var hs [2]allocBurst
		mk := func(id graph.NodeID) Handler {
			hs[id] = allocBurst{burst: burst, total: 3000}
			return &hs[id]
		}
		s := New(g, Fixed{D: 1}, mk)
		s.Run()
		return s, func() {
			s.Reset(Fixed{D: 1}, mk)
			if res := s.Run(); res.Msgs != 3000 {
				t.Fatalf("sent %d messages, want 3000", res.Msgs)
			}
		}
	}
	s, contended := cycle(500)
	before := slabFootprint(&s.direct.obs)
	if before[6] == 0 {
		t.Fatal("the burst never queued a message; the workload no longer contends")
	}
	a := testing.AllocsPerRun(5, contended)
	if after := slabFootprint(&s.direct.obs); after != before {
		t.Fatalf("outbox slab grew across Reset: %v -> %v", before, after)
	}
	_, uncontended := cycle(1)
	if b := testing.AllocsPerRun(5, uncontended); a != b {
		t.Fatalf("a Reset/Run cycle on a contended link allocates %.1f times, the same traffic uncontended %.1f", a, b)
	}
}

// TestFreshQueueAllocsOneSlicePerSlot pins what a fresh engine pays for its
// event queue (a new Sim per run grows every slot it touches from nothing):
// one key slice per slot, whichever shape the slot takes, plus the slab.
// The slots are the wheel, the overflow store and the straggler slot. A
// slot kept as a run plus a side heap doubles the first term, and measured
// +3.4 % allocations on a whole synchronized BFS. Every tick of the wheel
// and the overflow store get four keys out of order — tick 0 is the
// clock's own, so its keys go to the straggler slot, and wheel slot 0
// grows when tick 256 migrates into it — and the drain frees every cell;
// the count holds under -race too.
func TestFreshQueueAllocsOneSlicePerSlot(t *testing.T) {
	const perSlot = 4
	got := testing.AllocsPerRun(5, func() {
		var q eventQueue
		for i := 0; i < perSlot; i++ {
			for s := 0; s <= cqBuckets; s++ { // s == cqBuckets is past the horizon
				q.push(&event{t: (float64(s) + 0.5) / cqBuckets, seq: uint64(perSlot - i)})
			}
		}
		for !q.empty() {
			q.pop()
		}
	})
	// Per slot, append grows 1→2→4 keys; the slab is 1028 cells in five
	// chunks and their pointer slice. The free list lives in the freed
	// cells and allocates nothing.
	const slices, slab = 3 * (cqBuckets + 2), 5 + 4
	if got > slices+slab {
		t.Fatalf("a fresh queue made %.0f allocations, want at most %d for the slots and %d for the slab", got, slices, slab)
	}
}
