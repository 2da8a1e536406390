package syncrun

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// forceMulti returns a runner with the worker pool forced on regardless of
// graph or activation-set size.
func forceMulti(g *graph.Graph, mk func(graph.NodeID) Handler) *Runner {
	return New(g, mk).WithMode(ModeMulti).WithWorkers(4).WithMinParallel(1)
}

func TestMultiSendTriggeredActivation(t *testing.T) {
	g := graph.Path(2)
	res := forceMulti(g, func(graph.NodeID) Handler { return &pingPong{} }).Run()
	if res.M != 3 {
		t.Fatalf("M = %d, want 3 (send-triggered chain)", res.M)
	}
	if res.Outputs[1] != 3 {
		t.Fatalf("node 1 output %v, want pulse 3", res.Outputs[1])
	}
}

func TestMultiDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double send in Multi mode")
		}
	}()
	forceMulti(g, func(graph.NodeID) Handler { return &doubleSender{} }).Run()
}

// pulseDoubleSender violates CONGEST inside Pulse (not Init), so the panic
// crosses the worker-pool boundary and must still surface to the caller.
type pulseDoubleSender struct{}

func (h *pulseDoubleSender) Init(n API) {
	if n.ID() == 0 {
		n.Send(1, wire.Tag(1))
	}
}

func (h *pulseDoubleSender) Pulse(n API, p int, recvd []Incoming) {
	if n.ID() == 1 && len(recvd) > 0 {
		n.Send(0, wire.Tag(1))
		n.Send(0, wire.Tag(2))
	}
}

func TestMultiWorkerPanicPropagates(t *testing.T) {
	g := graph.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected worker panic to propagate")
		}
	}()
	forceMulti(g, func(graph.NodeID) Handler { return &pulseDoubleSender{} }).Run()
}

func TestMultiBFSMatchesSingle(t *testing.T) {
	g := graph.RandomConnected(300, 900, 4)
	mk := func(graph.NodeID) Handler { return &syncBFS{src: 0} }
	single := New(g, mk).WithMode(ModeSingle).KeepTrace().Run()
	multi := forceMulti(g, mk).KeepTrace().Run()
	if single.T != multi.T || single.M != multi.M || single.Rounds != multi.Rounds {
		t.Fatalf("scalars differ: %+v vs %+v", single, multi)
	}
	for i := range single.Trace {
		a, b := single.Trace[i], multi.Trace[i]
		if a.Pulse != b.Pulse || a.From != b.From || a.To != b.To || a.Body != b.Body {
			t.Fatalf("trace[%d]: %+v vs %+v", i, a, b)
		}
	}
	for v, out := range single.Outputs {
		if multi.Outputs[v] != out {
			t.Fatalf("node %d: %v vs %v", v, out, multi.Outputs[v])
		}
	}
}

// TestBatchesSortedBySender checks the order-preserving delivery property
// that replaced the per-batch sort: every Pulse batch arrives sorted by
// sender, in both modes.
type sortChecker struct {
	t    *testing.T
	seen bool
}

func (h *sortChecker) Init(n API) {
	// Star center is node 0; leaves all send to it at pulse 1.
	if n.ID() != 0 {
		n.Send(0, wire.Body{Kind: 1, A: int64(n.ID())})
	}
}

func (h *sortChecker) Pulse(n API, p int, recvd []Incoming) {
	for i := 1; i < len(recvd); i++ {
		if recvd[i-1].From >= recvd[i].From {
			h.t.Errorf("batch not sorted by sender: %v before %v", recvd[i-1].From, recvd[i].From)
		}
	}
	if n.ID() == 0 && len(recvd) > 0 {
		h.seen = true
	}
}

func TestBatchesSortedBySender(t *testing.T) {
	g := specGraph("star:200")
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
		var center *sortChecker
		r := New(g, func(id graph.NodeID) Handler {
			h := &sortChecker{t: t}
			if id == 0 {
				center = h
			}
			return h
		}).WithMode(mode).WithWorkers(4).WithMinParallel(1)
		r.Run()
		if !center.seen {
			t.Fatalf("mode %v: center received no batch", mode)
		}
	}
}

// scribbler is a wave: a node forwards the first batch it receives to all
// neighbors. It logs a copy of every batch it is handed; with scribble set
// it then abuses recvd — appends to it and overwrites every entry of the
// result, and overwrites recvd's own entries in place — before sending.
type scribbler struct {
	scribble bool
	got      [][]Incoming
	sent     bool
}

func (h *scribbler) Init(n API) {
	if n.ID() == 0 {
		h.wave(n, 0)
	}
}

func (h *scribbler) wave(n API, p int) {
	h.sent = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Body{Kind: 1, A: int64(n.ID()), B: int64(p)})
	}
}

func (h *scribbler) Pulse(n API, p int, recvd []Incoming) {
	h.got = append(h.got, append([]Incoming(nil), recvd...))
	if h.scribble {
		more := append(recvd, Incoming{From: -1, Body: wire.Tag(9)})
		for i := range more {
			more[i] = Incoming{From: -2, Body: wire.Body{Kind: 9, A: -2}}
		}
		for i := range recvd {
			recvd[i] = Incoming{From: -3, Body: wire.Body{Kind: 9, A: -3}}
		}
	}
	if !h.sent && len(recvd) > 0 {
		h.wave(n, p)
	}
}

// TestInPlaceBatchSafety: batches are handed out in place, so a handler
// that appends to recvd and scribbles over its entries must leave every
// other node's batches and the trace exactly as a well-behaved run sees
// them, in both modes.
func TestInPlaceBatchSafety(t *testing.T) {
	g := graph.RandomConnected(400, 1600, 6)
	run := func(mode ExecutionMode, scribble bool) ([]*scribbler, Result) {
		hs := make([]*scribbler, g.N())
		res := New(g, func(id graph.NodeID) Handler {
			hs[id] = &scribbler{scribble: scribble}
			return hs[id]
		}).WithMode(mode).WithWorkers(3).WithMinParallel(1).KeepTrace().Run()
		return hs, res
	}
	clean, want := run(ModeSingle, false)
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti} {
		hs, res := run(mode, true)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: a scribbling handler changed the Result or trace", mode)
		}
		for v := range hs {
			if !reflect.DeepEqual(hs[v].got, clean[v].got) {
				t.Fatalf("%s: node %d saw batches %v, want %v", mode, v, hs[v].got, clean[v].got)
			}
		}
	}
}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}
