package async

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// benchFlood broadcasts once: the source sends to every neighbor at Init;
// every node forwards the first message it receives. 2m messages total, so
// one benchmark iteration exercises the send/dispatch/deliver/ack path on
// every directed link exactly once.
type benchFlood struct {
	NopAck
	seen bool
}

func (h *benchFlood) Init(n *Node) {
	if n.ID() == 0 {
		h.seen = true
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, Msg{Proto: 1, Body: wire.Body{Kind: 1, A: int64(n.ID())}})
		}
		n.Output(0)
	}
}

func (h *benchFlood) Recv(n *Node, from graph.NodeID, m Msg) {
	if h.seen {
		return
	}
	h.seen = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, Msg{Proto: 1, Body: wire.Body{Kind: 1, A: int64(n.ID())}})
	}
	n.Output(0)
}

func (h *benchFlood) CloneStateInto(dst Handler) { dst.(*benchFlood).seen = h.seen }

// BenchmarkSimFlood measures the full simulator hot path — send, outbox,
// event push/pop, deliver, ack — via a flood broadcast. The interesting
// number is allocs/op divided by the ~4m simulated events per iteration.
func BenchmarkSimFlood(b *testing.B) {
	g := graph.Grid(20, 20)
	adv := SeededRandom{Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := New(g, adv, func(graph.NodeID) Handler { return &benchFlood{} }).Run()
		if len(res.Outputs) != g.N() {
			b.Fatalf("flood reached %d/%d nodes", len(res.Outputs), g.N())
		}
	}
	// Each edge carries one message per direction plus one ack per message.
	b.ReportMetric(float64(4*g.M()), "events/op")
}

// BenchmarkSimFloodFixed is the same workload under the degenerate Fixed
// adversary: every event lands in the same queue bucket, the worst case for
// a calendar queue and the best case for a binary heap.
func BenchmarkSimFloodFixed(b *testing.B) {
	g := graph.Grid(20, 20)
	adv := Fixed{D: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := New(g, adv, func(graph.NodeID) Handler { return &benchFlood{} }).Run()
		if len(res.Outputs) != g.N() {
			b.Fatalf("flood reached %d/%d nodes", len(res.Outputs), g.N())
		}
	}
	b.ReportMetric(float64(4*g.M()), "events/op")
}

// BenchmarkSimFloodParallel runs the flood on a larger grid under Fixed{1}
// — full-unit lookahead, the bounded-lag executor's best case — in both
// execution modes. On a single-core host the multi numbers measure pure
// window/staging overhead; on real hardware they are the parallel speedup.
func BenchmarkSimFloodParallel(b *testing.B) {
	g := graph.Grid(60, 60)
	adv := Fixed{D: 1}
	mk := func(graph.NodeID) Handler { return &benchFlood{} }
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti, ModeSpec} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := New(g, adv, mk).WithMode(mode).Run()
				if len(res.Outputs) != g.N() {
					b.Fatalf("flood reached %d/%d nodes", len(res.Outputs), g.N())
				}
			}
			b.ReportMetric(float64(4*g.M()), "events/op")
		})
	}
}

// BenchmarkSimFloodRandomModes is the adversary regime the speculative
// executor exists for: SeededRandom's MinDelay is 2^-20, so the bounded-lag
// safe window almost never holds more than one event and ModeMulti
// degenerates to barrier overhead, while ModeSpec drains whole horizons
// optimistically and pays for the occasional rollback instead. On one core
// every parallel row is pure overhead; run it with -cpu 1,2,4 to look for
// the spec-over-single crossover.
func BenchmarkSimFloodRandomModes(b *testing.B) {
	g := graph.Grid(60, 60)
	adv := SeededRandom{Seed: 7}
	mk := func(graph.NodeID) Handler { return &benchFlood{} }
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti, ModeSpec} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := New(g, adv, mk).WithMode(mode).Run()
				if len(res.Outputs) != g.N() {
					b.Fatalf("flood reached %d/%d nodes", len(res.Outputs), g.N())
				}
			}
			b.ReportMetric(float64(4*g.M()), "events/op")
		})
	}
}

// BenchmarkSimFloodReset measures the engine-reuse path: one engine,
// rearmed with Reset per iteration, versus the fresh-engine construction
// the other benchmarks pay.
func BenchmarkSimFloodReset(b *testing.B) {
	g := graph.Grid(20, 20)
	adv := SeededRandom{Seed: 7}
	mk := func(graph.NodeID) Handler { return &benchFlood{} }
	sim := New(g, adv, mk)
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Reset(adv, mk)
		res := sim.Run()
		if len(res.Outputs) != g.N() {
			b.Fatalf("flood reached %d/%d nodes", len(res.Outputs), g.N())
		}
	}
	b.ReportMetric(float64(4*g.M()), "events/op")
}
