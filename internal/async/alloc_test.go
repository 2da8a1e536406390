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

// TestFreshQueueAllocsOneSlicePerSlot pins what a fresh engine pays for its
// event queue (a new Sim per run grows every slot it touches from nothing):
// one key slice per slot, whichever shape the slot takes, plus the slab. A
// slot kept as a run plus a side heap doubles the first term, and measured
// +3.4 % allocations on a whole synchronized BFS. Every wheel slot and the
// overflow store get four keys out of order — so each goes run, then heap —
// and the drain frees every cell; the count holds under -race too.
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
	// Per slot, append grows 1→2→4 keys; the slab is 1028 events in five
	// chunks, their pointer slice, and a free list grown to match.
	const slices, slab = 3 * (cqBuckets + 1), 5 + 4 + 12
	if got > slices+slab {
		t.Fatalf("a fresh queue made %.0f allocations, want at most %d for the slots and %d for the slab", got, slices, slab)
	}
}
