package syncrun

import (
	"reflect"
	"runtime"
	"slices"
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

// TestSealSplitMatchesOneRange steps a Single runner, whose seal is one
// receiver range, beside a Multi runner whose every seal splits into three
// word-aligned ranges, and requires the same pulse buffer after every
// seal: inbox, cursors, epochs, activation bitmap and count. The graphs
// span one bitmap word (two empty ranges), two (one empty), and several
// (uneven ranges).
func TestSealSplitMatchesOneRange(t *testing.T) {
	for _, spec := range []string{"path:40", "star:100", "grid:13x17", "er:n=300,m=900,seed=3", "pa:n=260,m=2,seed=5"} {
		g := specGraph(spec)
		mk := func(graph.NodeID) Handler { return &scribbler{} }
		one := New(g, mk).WithMode(ModeSingle)
		split := New(g, mk).WithMode(ModeMulti).WithWorkers(3).WithMinParallel(1)
		one.start()
		split.start()
		for p := 0; ; p++ {
			a, b := &one.buf, &split.buf
			switch {
			case !slices.Equal(a.in, b.in):
				t.Fatalf("%s pulse %d: inbox differs", spec, p)
			case !slices.Equal(a.lo, b.lo) || !slices.Equal(a.hi, b.hi):
				t.Fatalf("%s pulse %d: batch cursors differ", spec, p)
			case !slices.Equal(a.ep, b.ep) || a.epoch != b.epoch:
				t.Fatalf("%s pulse %d: epochs differ", spec, p)
			case !slices.Equal(a.bits, b.bits) || a.active != b.active:
				t.Fatalf("%s pulse %d: activation set differs (%d vs %d active)", spec, p, a.active, b.active)
			}
			more := one.stepPulse()
			if split.stepPulse() != more {
				t.Fatalf("%s pulse %d: one runner quiesced before the other", spec, p)
			}
			if !more {
				break
			}
		}
		if len(one.ranges) != 1 || len(split.ranges) != 3 {
			t.Fatalf("%s: sealed with %d and %d ranges, want 1 and 3", spec, len(one.ranges), len(split.ranges))
		}
	}
}

// TestAutoModeClampsPool: with more workers configured than CPUs, ModeAuto
// runs on the GOMAXPROCS-clamped pool it reasoned about — two sinks and
// two seal ranges here, not eight — and still reproduces Single's Result.
func TestAutoModeClampsPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := specGraph("er:n=3000,m=9000,seed=2")
	mk := func(graph.NodeID) Handler { return &benchBFS{} }
	want := New(g, mk).WithMode(ModeSingle).KeepTrace().Run()
	r := New(g, mk).WithWorkers(8).KeepTrace()
	got := r.Run()
	if len(r.sinks) != 2 || len(r.ranges) != 2 {
		t.Fatalf("Auto ran %d sinks and %d seal ranges at GOMAXPROCS=2 with 8 workers configured, want 2 and 2",
			len(r.sinks), len(r.ranges))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ModeAuto Result differs from Single")
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
