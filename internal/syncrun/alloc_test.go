package syncrun

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// allocBounce ping-pongs a counter between nodes 0 and 1 for `rounds`
// pulses: one message per pulse, so the marginal cost between two round
// counts is purely the per-pulse/per-message hot path — activation
// bookkeeping, send log, seal, CONGEST stamp.
type allocBounce struct {
	rounds int
}

func (h *allocBounce) Init(n API) {
	if n.ID() == 0 {
		n.Send(1, wire.Body{Kind: 1, A: 0})
	}
}

func (h *allocBounce) Pulse(n API, p int, recvd []Incoming) {
	if len(recvd) == 0 {
		return
	}
	k := int(recvd[0].Body.A)
	if k+1 >= h.rounds {
		n.Output(k)
		return
	}
	n.Send(recvd[0].From, wire.Body{Kind: 1, A: int64(k + 1)})
}

// TestZeroSteadyStateAllocsPerMessage is the lockstep twin of the async
// engine's regression test: after warmup, a delivered message must not
// allocate. Whole-run allocations at two round counts on the same graph
// differ only by the steady-state cost of the extra messages; with boxed
// `any` bodies that was ~1 alloc per message, with wire.Body it must be
// (close to) zero.
func TestZeroSteadyStateAllocsPerMessage(t *testing.T) {
	g := graph.Path(2)
	run := func(rounds int) func() {
		return func() {
			res := New(g, func(graph.NodeID) Handler { return &allocBounce{rounds: rounds} }).Run()
			if res.M != uint64(rounds) {
				t.Fatalf("sent %d messages, want %d", res.M, rounds)
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

// TestLockstepBytesPerMessage pins the bytes a whole BFS run allocates per
// message, runner construction and the Outputs map included. The send
// logs and the inbox array are sized by the peak pulse and reused, so the
// figure is a couple of 56-byte records per message of the peak pulse plus
// per-node state (about 119 B). Per-receiver chains in one growing pool
// allocated about 310 B/message (Single) and 500 B/message (Multi, three
// workers) here.
func TestLockstepBytesPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("race shadow state inflates allocation sizes; the pin holds on uninstrumented builds")
	}
	const pin = 150.0
	g := graph.RandomConnected(40000, 160000, 9)
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := New(g, func(graph.NodeID) Handler { return &benchBFS{} }).WithMode(mode).WithWorkers(3).Run()
		runtime.ReadMemStats(&after)
		if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.M); got > pin {
			t.Errorf("%s: %.1f B allocated per message over %d messages, pin %.0f", mode, got, res.M, pin)
		}
	}
}
