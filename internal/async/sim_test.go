package async

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// echoHandler: node 0 sends "ping" to all neighbors at Init; every node
// outputs on first message received, forwarding once (flooding).
type floodHandler struct {
	NopAck
	seen bool
}

func (h *floodHandler) Init(n *Node) {
	if n.ID() == 0 {
		h.seen = true
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, Msg{Proto: 1, Body: wire.Tag(1)})
		}
	}
}

func (h *floodHandler) Recv(n *Node, _ graph.NodeID, m Msg) {
	if h.seen {
		return
	}
	h.seen = true
	n.Output(0)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, m)
	}
}

func (h *floodHandler) SaveState(e *wire.Enc) { e.Bool(h.seen) }
func (h *floodHandler) LoadState(d *wire.Dec) { h.seen = d.Bool() }

func runFlood(g *graph.Graph, adv Adversary) Result {
	s := New(g, adv, func(graph.NodeID) Handler { return &floodHandler{} })
	return s.Run()
}

// stringOutHandler floods from node 0 and outputs a value Output has no
// encoding for on every message.
type stringOutHandler struct{ floodHandler }

func (h *stringOutHandler) Recv(n *Node, _ graph.NodeID, _ Msg) { n.Output("x") }

// TestOutputRefusesUnencodable: Output of a string panics in every mode,
// naming the node, the type and OutputBody, the call that takes struct
// results.
func TestOutputRefusesUnencodable(t *testing.T) {
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti, ModeSpec} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"node 1", "string", "OutputBody"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("mode %v: panic %q does not name %q", mode, msg, want)
					}
				}
			}()
			New(graph.Path(2), Fixed{D: 1}, func(graph.NodeID) Handler { return &stringOutHandler{} }).WithMode(mode).Run()
		}()
	}
}

// wideProtoHandler floods from node 0, and a node reached by the flood
// answers once with a proto one past what an event cell holds.
type wideProtoHandler struct{ floodHandler }

func (h *wideProtoHandler) Recv(n *Node, from graph.NodeID, _ Msg) {
	if !h.seen {
		h.seen = true
		n.Send(from, Msg{Proto: maxProto + 1, Body: wire.Tag(1)})
	}
}

// TestSendRefusesWideProto: a Send whose proto a queued event cannot hold
// panics in every mode, from a worker context too, naming the node, the
// proto and the bound.
func TestSendRefusesWideProto(t *testing.T) {
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti, ModeSpec} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"node 1", "proto 65536", "65535"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("mode %v: panic %q does not name %q", mode, msg, want)
					}
				}
			}()
			New(graph.Path(2), Fixed{D: 1}, func(graph.NodeID) Handler { return &wideProtoHandler{} }).WithMode(mode).Run()
		}()
	}
}

// TestRegisterRefusesWideProto: the Mux dispatches through a table indexed
// by proto, so Register refuses a proto outside what an event holds,
// naming the proto and the bound.
func TestRegisterRefusesWideProto(t *testing.T) {
	for _, p := range []Proto{-1, maxProto + 1} {
		wantPanic(t, func() { NewMux().Register(p, &idleMod{}) }, fmt.Sprintf("proto %d", p), "65535")
	}
}

// wantPanic fails t unless f panics with a message naming every want.
func wantPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}()
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Fatalf("panic %q does not name %q", msg, w)
		}
	}
}

func TestFloodReachesEveryone(t *testing.T) {
	g := graph.RandomConnected(40, 90, 5)
	for _, adv := range StandardAdversaries(g.N(), 7) {
		res := runFlood(g, adv)
		if len(res.Outputs) != g.N() {
			t.Errorf("%s: %d/%d nodes output", adv.Name(), len(res.Outputs), g.N())
		}
		if res.Msgs == 0 || res.Acks != res.Msgs {
			t.Errorf("%s: msgs=%d acks=%d (acks must equal delivered msgs)",
				adv.Name(), res.Msgs, res.Acks)
		}
	}
}

func TestFloodTimeBoundedByDiameter(t *testing.T) {
	// With delays <= 1 and no contention beyond degree, flooding completes
	// within D * (small constant) time; with Fixed{1} delays it is exactly
	// the BFS depth per hop plus serialization at multi-degree nodes.
	g := graph.Path(30)
	res := runFlood(g, Fixed{D: 1})
	// On a path there is no contention: one hop per time unit, D=29.
	if res.Time != 29 {
		t.Errorf("path flood time = %g, want 29", res.Time)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.RandomConnected(30, 70, 3)
	a := runFlood(g, SeededRandom{Seed: 99})
	b := runFlood(g, SeededRandom{Seed: 99})
	if a.Time != b.Time || a.Msgs != b.Msgs || a.QuiesceTime != b.QuiesceTime {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// ackCounter checks that Ack fires exactly once per sent message, with the
// original payload.
type ackCounter struct {
	sent, acked int
	lastBody    wire.Body
}

func (h *ackCounter) Init(n *Node) {
	if n.ID() != 0 {
		return
	}
	for i := 0; i < 5; i++ {
		n.Send(1, Msg{Proto: 2, Body: wire.Body{Kind: 1, A: int64(i)}})
		h.sent++
	}
}
func (h *ackCounter) Recv(n *Node, _ graph.NodeID, _ Msg) { n.Output(true) }
func (h *ackCounter) Ack(n *Node, _ graph.NodeID, m Msg) {
	h.acked++
	h.lastBody = m.Body
	if h.acked == h.sent {
		n.Output(true)
	}
}

func TestAcksDeliveredPerMessage(t *testing.T) {
	g := graph.Path(2)
	hs := make([]*ackCounter, 2)
	s := New(g, SeededRandom{Seed: 4}, func(id graph.NodeID) Handler {
		hs[id] = &ackCounter{}
		return hs[id]
	})
	res := s.Run()
	if hs[0].acked != 5 {
		t.Fatalf("acked = %d, want 5", hs[0].acked)
	}
	if hs[0].lastBody.A != 4 {
		t.Fatalf("last acked body = %v, want A=4", hs[0].lastBody)
	}
	if res.Msgs != 5 || res.Acks != 5 {
		t.Fatalf("msgs=%d acks=%d", res.Msgs, res.Acks)
	}
}

// orderProbe records delivery order at node 1.
type orderProbe struct {
	NopAck
	got []int64
}

func (h *orderProbe) Init(n *Node) {}
func (h *orderProbe) Recv(n *Node, _ graph.NodeID, m Msg) {
	h.got = append(h.got, m.Body.A)
	n.Output(len(h.got))
}

// stageSender sends, from node 0 at Init, interleaved messages of stages
// 2,1,0 — all queued before the link frees — so the outbox must reorder
// them by stage.
type stageSender struct {
	NopAck
}

func (h *stageSender) Init(n *Node) {
	if n.ID() != 0 {
		return
	}
	n.Send(1, Msg{Proto: 1, Stage: 2, Body: wire.Body{Kind: 1, A: 2}})  // s2
	n.Send(1, Msg{Proto: 1, Stage: 1, Body: wire.Body{Kind: 1, A: 11}}) // s1a
	n.Send(1, Msg{Proto: 1, Stage: 0, Body: wire.Body{Kind: 1, A: 0}})  // s0
	n.Send(1, Msg{Proto: 1, Stage: 1, Body: wire.Body{Kind: 1, A: 12}}) // s1b
	n.Output(true)
}
func (h *stageSender) Recv(*Node, graph.NodeID, Msg) {}

func TestStagePriority(t *testing.T) {
	g := graph.Path(2)
	var probe *orderProbe
	s := New(g, Fixed{D: 1}, func(id graph.NodeID) Handler {
		if id == 0 {
			return &stageSender{}
		}
		probe = &orderProbe{}
		return probe
	})
	s.Run()
	// First send dispatches immediately (link idle): s2 goes first. The
	// remaining three are scheduled by stage: s0, s1a, s1b.
	want := []int64{2, 0, 11, 12}
	if len(probe.got) != len(want) {
		t.Fatalf("delivered %v", probe.got)
	}
	for i := range want {
		if probe.got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", probe.got, want)
		}
	}
}

// protoSender queues 3 messages of proto A then 3 of proto B (same stage),
// all while the link is busy; round-robin must interleave them.
type protoSender struct{ NopAck }

func (h *protoSender) Init(n *Node) {
	if n.ID() != 0 {
		return
	}
	n.Send(1, Msg{Proto: 7, Body: wire.Body{Kind: 1, A: 0}}) // dispatches immediately
	for i := 0; i < 3; i++ {
		n.Send(1, Msg{Proto: 10, Body: wire.Body{Kind: 1, A: 1}})
	}
	for i := 0; i < 3; i++ {
		n.Send(1, Msg{Proto: 20, Body: wire.Body{Kind: 1, A: 2}})
	}
	n.Output(true)
}
func (h *protoSender) Recv(*Node, graph.NodeID, Msg) {}

func TestRoundRobinAcrossProtos(t *testing.T) {
	g := graph.Path(2)
	var probe *orderProbe
	s := New(g, Fixed{D: 1}, func(id graph.NodeID) Handler {
		if id == 0 {
			return &protoSender{}
		}
		probe = &orderProbe{}
		return probe
	})
	s.Run()
	want := []int64{0, 1, 2, 1, 2, 1, 2}
	if len(probe.got) != len(want) {
		t.Fatalf("delivered %v", probe.got)
	}
	for i := range want {
		if probe.got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", probe.got, want)
		}
	}
}

func TestPerLinkFIFO(t *testing.T) {
	// The ack discipline serializes a link, so same-proto same-stage
	// messages arrive in send order under every adversary.
	g := graph.Path(2)
	for _, adv := range StandardAdversaries(2, 13) {
		var probe *orderProbe
		s := New(g, adv, func(id graph.NodeID) Handler {
			if id == 0 {
				return &burstSender{}
			}
			probe = &orderProbe{}
			return probe
		})
		s.Run()
		for i := 0; i < 10; i++ {
			if probe.got[i] != int64(i) {
				t.Fatalf("%s: out-of-order delivery %v", adv.Name(), probe.got)
			}
		}
	}
}

type burstSender struct{ NopAck }

func (h *burstSender) Init(n *Node) {
	if n.ID() != 0 {
		return
	}
	for i := 0; i < 10; i++ {
		n.Send(1, Msg{Proto: 1, Body: wire.Body{Kind: 1, A: int64(i)}})
	}
	n.Output(true)
}
func (h *burstSender) Recv(*Node, graph.NodeID, Msg) {}

func TestSendToNonNeighborPanics(t *testing.T) {
	g := graph.Path(3)
	s := New(g, Fixed{D: 1}, func(id graph.NodeID) Handler {
		if id == 0 {
			return &badSender{}
		}
		return &floodHandler{}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-neighbor send")
		}
	}()
	s.Run()
}

type badSender struct{ NopAck }

func (h *badSender) Init(n *Node)                  { n.Send(2, Msg{Proto: 1}) }
func (h *badSender) Recv(*Node, graph.NodeID, Msg) {}

func TestMuxRouting(t *testing.T) {
	g := graph.Path(2)
	recvd := map[Proto]int{}
	mkMod := func(p Proto) Module { return &countMod{p: p, recvd: recvd} }
	s := New(g, Fixed{D: 1}, func(id graph.NodeID) Handler {
		mux := NewMux()
		mux.Register(100, mkMod(100))
		mux.Register(200, mkMod(200))
		if id == 0 {
			mux.Register(1, &muxDriver{})
		} else {
			mux.Register(1, &idleMod{})
		}
		return mux
	})
	s.Run()
	if recvd[100] != 2 || recvd[200] != 1 {
		t.Fatalf("mux routing counts = %v", recvd)
	}
}

// TestMuxCopiesShareTable: copies of one NewMux value that make the same
// Register calls route alike, each to its own modules, a module registered
// under two protos included, and start each distinct module once, in
// registration order.
func TestMuxCopiesShareTable(t *testing.T) {
	proto := NewMux()
	copies := []Mux{*proto, *proto, *proto}
	for i := range copies {
		x := &copies[i]
		starts := &startLog{}
		twice, last := &startMod{id: 0, log: starts}, &startMod{id: 1, log: starts}
		x.Register(7, twice)
		x.Register(3, last)
		x.Register(9, twice)
		if x.tab != proto.tab {
			t.Fatalf("copy %d built its own table", i)
		}
		for _, r := range []struct {
			p   Proto
			mod Module
		}{{7, twice}, {3, last}, {9, twice}, {0, nil}, {8, nil}, {100, nil}, {-1, nil}, {maxProto + 1, nil}} {
			if got := x.Module(r.p); got != r.mod {
				t.Fatalf("copy %d: Module(%d) = %v, want %v", i, r.p, got, r.mod)
			}
		}
		x.Init(&Node{})
		if len(starts.ids) != 2 || starts.ids[0] != 0 || starts.ids[1] != 1 {
			t.Fatalf("copy %d started modules %v, want [0 1]", i, starts.ids)
		}
	}
}

// TestMuxCopyRepeatsRegistrations: a copy's Register calls must repeat the
// first copy's. A call naming another proto, or another module where the
// first copy named one again, panics; a proto only later calls name is
// unregistered on a copy that made fewer calls; a repeated proto panics on
// every copy.
func TestMuxCopyRepeatsRegistrations(t *testing.T) {
	proto := NewMux()
	mod := func() Module { return &startMod{log: &startLog{}} } // zero-sized modules share an address
	first := *proto
	a, b := mod(), mod()
	first.Register(1, a)
	first.Register(2, a)
	first.Register(5, b)

	wantPanic(t, func() {
		x := *proto
		x.Register(1, mod())
		x.Register(5, mod())
	}, "call 1", "proto 5")
	wantPanic(t, func() {
		x := *proto
		x.Register(1, mod())
		x.Register(2, mod())
	}, "call 1", "module")

	prefix := *proto
	prefix.Register(1, mod())
	if prefix.Module(2) != nil || prefix.Module(5) != nil {
		t.Fatal("a copy that registered a prefix routes a proto only later calls name")
	}
	wantPanic(t, func() { prefix.Recv(&Node{id: 4}, 0, Msg{Proto: 5}) }, "node 4", "unregistered proto 5")

	wantPanic(t, func() {
		x := *NewMux()
		x.Register(1, a)
		x.Register(1, b)
	}, "proto 1 registered twice")
	wantPanic(t, func() {
		x := *proto
		x.Register(1, mod())
		x.Register(1, mod())
	}, "proto 1 registered twice")
}

type startLog struct{ ids []int }

type startMod struct {
	idleMod
	id  int
	log *startLog
}

func (m *startMod) Start(*Node) { m.log.ids = append(m.log.ids, m.id) }

type countMod struct {
	p     Proto
	recvd map[Proto]int
}

func (m *countMod) Start(*Node)                         {}
func (m *countMod) Recv(n *Node, _ graph.NodeID, _ Msg) { m.recvd[m.p]++; n.Output(true) }
func (m *countMod) Ack(*Node, graph.NodeID, Msg)        {}

type muxDriver struct{}

func (m *muxDriver) Start(n *Node) {
	n.Send(1, Msg{Proto: 100, Body: wire.Tag(1)})
	n.Send(1, Msg{Proto: 200, Body: wire.Tag(2)})
	n.Send(1, Msg{Proto: 100, Body: wire.Tag(3)})
	n.Output(true)
}
func (m *muxDriver) Recv(*Node, graph.NodeID, Msg) {}
func (m *muxDriver) Ack(*Node, graph.NodeID, Msg)  {}

type idleMod struct{}

func (m *idleMod) Start(*Node)                   {}
func (m *idleMod) Recv(*Node, graph.NodeID, Msg) {}
func (m *idleMod) Ack(*Node, graph.NodeID, Msg)  {}

func TestPerProtoAccounting(t *testing.T) {
	g := graph.Path(2)
	s := New(g, Fixed{D: 1}, func(id graph.NodeID) Handler {
		if id == 0 {
			return &protoSender{}
		}
		return &orderProbe{}
	})
	res := s.Run()
	if res.PerProto[7] != 1 || res.PerProto[10] != 3 || res.PerProto[20] != 3 {
		t.Fatalf("per-proto counts = %v", res.PerProto)
	}
}
