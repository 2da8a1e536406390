package async

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/wire"
)

// TestSpecMatrix is the determinism contract of the speculative mode,
// mirroring TestBoundedLagMatrix: across adversaries x graphs x seeds x
// workloads, a speculative run with a forced 4-worker pool — both with the
// adaptive horizon and with a pinned full-unit horizon that forces deep
// speculation and heavy rollback — must produce a Result deep-equal to the
// serial run's. Run with -race: workers really run concurrently here
// (WithMinParallel(1)). The matrix must also actually exercise rollback:
// the summed Rejected count is asserted non-zero.
func TestSpecMatrix(t *testing.T) {
	workloads := []struct {
		name string
		mk   func() func(graph.NodeID) Handler
	}{
		{"flood", func() func(graph.NodeID) Handler {
			return func(graph.NodeID) Handler { return &floodHandler{} }
		}},
		{"multiflood4", func() func(graph.NodeID) Handler {
			return func(graph.NodeID) Handler { return &multiFlood{k: 4} }
		}},
	}
	var rejected, committed uint64
	for _, seed := range []uint64{3, 17} {
		for _, tg := range matrixGraphs(seed) {
			for _, adv := range matrixAdversaries(tg.g.N(), seed) {
				for _, wl := range workloads {
					serial := New(tg.g, adv, wl.mk()).WithMode(ModeSingle).KeepTrace().Run()
					if len(serial.Trace) == 0 || serial.Msgs == 0 {
						t.Fatalf("seed=%d graph=%s adv=%s workload=%s: degenerate run (msgs=%d trace=%d)",
							seed, tg.name, adv.Name(), wl.name, serial.Msgs, len(serial.Trace))
					}
					for _, horizon := range []float64{0, 1} {
						sim := New(tg.g, adv, wl.mk()).WithMode(ModeSpec).
							WithWorkers(4).WithMinParallel(1).WithSpecHorizon(horizon).KeepTrace()
						spec := sim.Run()
						if !reflect.DeepEqual(serial, spec) {
							t.Fatalf("seed=%d graph=%s adv=%s workload=%s horizon=%g: speculative Result differs from serial\nserial: %+v\nspec:   %+v",
								seed, tg.name, adv.Name(), wl.name, horizon, summarize(serial), summarize(spec))
						}
						st := sim.SpecStats()
						if st.FellBack || st.Rounds == 0 {
							t.Fatalf("seed=%d graph=%s adv=%s workload=%s horizon=%g: speculation did not run (stats %+v)",
								seed, tg.name, adv.Name(), wl.name, horizon, st)
						}
						if st.Executed != st.Committed+st.Rejected {
							t.Fatalf("spec stats do not balance: %+v", st)
						}
						rejected += st.Rejected
						committed += st.Committed
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatalf("matrix never exercised rollback (committed=%d)", committed)
	}
}

// TestSpecWorkerSweep pins determinism across pool sizes, including the
// degenerate one-worker pool (speculation without concurrency).
func TestSpecWorkerSweep(t *testing.T) {
	g := graph.RandomConnected(50, 120, 9)
	mk := func() func(graph.NodeID) Handler {
		return func(graph.NodeID) Handler { return &multiFlood{k: 3} }
	}
	adv := SeededRandom{Seed: 11}
	want := New(g, adv, mk()).WithMode(ModeSingle).KeepTrace().Run()
	for _, w := range []int{1, 2, 3, 8, 16} {
		got := New(g, adv, mk()).WithMode(ModeSpec).
			WithWorkers(w).WithMinParallel(1).KeepTrace().Run()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: speculative Result differs from serial", w)
		}
	}
}

// plainFlood is floodHandler without a wire.StateCodec: a deliberately
// speculation-ineligible workload for the fallback test.
type plainFlood struct {
	seen bool
}

func (h *plainFlood) Init(n *Node) {
	if n.ID() == 0 {
		h.seen = true
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, Msg{Proto: 1, Body: wire.Tag(1)})
		}
		n.Output(0)
	}
}

func (h *plainFlood) Recv(n *Node, _ graph.NodeID, m Msg) {
	if h.seen {
		return
	}
	h.seen = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, m)
	}
	n.Output(0)
}

func (h *plainFlood) Ack(*Node, graph.NodeID, Msg) {}

// TestSpecFallback: a forced ModeSpec run over handlers that do not opt in
// must downgrade to the bounded-lag executor, report it in SpecStats, and
// still match serial exactly.
func TestSpecFallback(t *testing.T) {
	g := graph.RandomConnected(40, 100, 13)
	mk := func() func(graph.NodeID) Handler {
		return func(graph.NodeID) Handler { return &plainFlood{} }
	}
	want := New(g, Fixed{D: 0.37}, mk()).WithMode(ModeSingle).KeepTrace().Run()
	sim := New(g, Fixed{D: 0.37}, mk()).WithMode(ModeSpec).
		WithWorkers(4).WithMinParallel(1).KeepTrace()
	got := sim.Run()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fallback Result differs from serial")
	}
	st := sim.SpecStats()
	if !st.FellBack || st.Rounds != 0 {
		t.Fatalf("expected a recorded fallback with no speculative rounds, got %+v", st)
	}
}

// TestSpecHorizonValidation pins the WithSpecHorizon argument contract.
func TestSpecHorizonValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative horizon should panic")
		}
	}()
	New(graph.Path(2), Fixed{D: 1}, func(graph.NodeID) Handler { return &floodHandler{} }).
		WithSpecHorizon(-0.5)
}

// TestSpecPanicSerialEquivalent pins the speculative panic contract: a
// handler panic surfaces from Run with the serial panic value, and the
// post-panic PartialResult — the committed prefix — equals the serial
// engine's at its point of death. (The commit walk certifies the panic in
// serial order before re-raising it, replaying the partial effects.)
func TestSpecPanicSerialEquivalent(t *testing.T) {
	g := graph.RandomConnected(40, 100, 7)
	mkBoom := func() func(graph.NodeID) Handler {
		return func(graph.NodeID) Handler { return &panicAt{trigger: 20} }
	}
	run := func(s *Sim) (p any, res Result) {
		defer func() {
			p = recover()
			res = s.PartialResult()
		}()
		s.Run()
		return
	}
	serial := New(g, SeededRandom{Seed: 4}, mkBoom()).WithMode(ModeSingle)
	sp, sres := run(serial)
	if sp == nil {
		t.Fatal("serial run did not panic")
	}
	spec := New(g, SeededRandom{Seed: 4}, mkBoom()).WithMode(ModeSpec).
		WithWorkers(4).WithMinParallel(1).WithSpecHorizon(1)
	gp, gres := run(spec)
	if !reflect.DeepEqual(sp, gp) {
		t.Fatalf("panic values differ: serial %v, spec %v", sp, gp)
	}
	if !reflect.DeepEqual(sres, gres) {
		t.Fatalf("post-panic PartialResult differs: serial %+v, spec %+v", sres, gres)
	}
}

// TestResetAfterMidSpecPanic is TestResetAfterMidWindowPanic for the
// speculative executor: after a run dies mid-round, Reset must clear the
// op logs, clones, and recorded worker panic so the rearmed engine
// reproduces a fresh engine's Result exactly.
func TestResetAfterMidSpecPanic(t *testing.T) {
	g := graph.RandomConnected(40, 100, 7)
	mkBoom := func(graph.NodeID) Handler { return &panicAt{trigger: 20} }
	mk := func(graph.NodeID) Handler { return &floodHandler{} }
	want := New(g, Fixed{D: 1}, mk).Run()

	s := New(g, Fixed{D: 1}, mkBoom).WithMode(ModeSpec).WithWorkers(4).WithMinParallel(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the trigger panic")
			}
		}()
		s.Run()
	}()
	s.Reset(Fixed{D: 1}, mk)
	if got := s.Run(); !reflect.DeepEqual(want, got) {
		t.Fatalf("rearmed engine after mid-round panic differs from fresh engine:\n%+v\nvs\n%+v", want, got)
	}
}

// statsProbe calls Sim.PartialResult from inside a handler callback and records
// whether the mid-window guard fired, then floods normally so the run
// terminates. The flag is atomic: in the parallel modes many workers'
// probes fire concurrently.
type statsProbe struct {
	floodHandler
	sim      **Sim
	panicked *atomic.Bool
}

func (h *statsProbe) Recv(n *Node, from graph.NodeID, m Msg) {
	func() {
		defer func() {
			if recover() != nil {
				h.panicked.Store(true)
			}
		}()
		(*h.sim).PartialResult()
	}()
	h.floodHandler.Recv(n, from, m)
}

// TestStatsMidWindowGuard: PartialResult called while a parallel window or
// speculative round is in flight must panic instead of returning counters
// that are stale by an unknowable amount; in ModeSingle the same call is a
// well-defined snapshot and must not panic.
func TestStatsMidWindowGuard(t *testing.T) {
	g := graph.Grid(6, 6)
	for _, mode := range []ExecutionMode{ModeSingle, ModeMulti, ModeSpec} {
		var sim *Sim
		var panicked atomic.Bool
		mk := func(graph.NodeID) Handler { return &statsProbe{sim: &sim, panicked: &panicked} }
		sim = New(g, Fixed{D: 1}, mk).WithMode(mode).WithWorkers(2).WithMinParallel(1)
		sim.Run()
		if mode == ModeSingle && panicked.Load() {
			t.Fatal("ModeSingle: mid-run PartialResult should be a valid snapshot, not a panic")
		}
		if mode != ModeSingle && !panicked.Load() {
			t.Fatalf("%s: PartialResult inside an in-flight window should panic", mode)
		}
	}
}

// twoRate drives two ping chains at incommensurate periods so speculation
// past the safe window keeps executing the slow chain's queued events
// before the fast chain's next hop is scheduled — every such event is
// rolled back and retried, exercising the rollback path once per few
// messages.
type twoRate struct{}

func (twoRate) MinDelay() float64 { return 0.5 }
func (twoRate) Name() string      { return "tworate" }
func (twoRate) Delay(from, to graph.NodeID, _ uint64, _ Proto) float64 {
	if from == 0 || to == 0 {
		return 0.9 // slow chain on link 0–1
	}
	return 0.51 // fast chain on link 1–2
}

// pingChain: nodes 0 and 2 each drive `remaining` messages to node 1, one
// at a time (next send on ack), like allocPing but with two independent
// chains through different owner shards.
type pingChain struct {
	remaining int
}

func (h *pingChain) Init(n *Node) {
	if n.ID() == 0 || n.ID() == 2 {
		h.remaining--
		n.Send(1, Msg{Proto: Proto(1 + n.ID()), Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	}
}

func (h *pingChain) Recv(*Node, graph.NodeID, Msg) {}

func (h *pingChain) Ack(n *Node, to graph.NodeID, m Msg) {
	if h.remaining > 0 {
		h.remaining--
		n.Send(to, Msg{Proto: m.Proto, Body: wire.Body{Kind: 1, A: int64(h.remaining)}})
	} else if h.remaining == 0 {
		h.remaining--
		n.Output(true)
	}
}

func (h *pingChain) SaveState(e *wire.Enc) { e.Int(h.remaining) }
func (h *pingChain) LoadState(d *wire.Dec) { h.remaining = d.Int() }

// TestSpecRollbackSteadyStateAllocs is the rollback-path alloc regression:
// once the spec structures are warm, a rolled-back-and-retried event must
// cost zero steady-state allocations — the op logs, requeue wheel slots,
// release batch, and clone ping-pong all reuse their capacity. Same
// two-length differencing idiom as the engine's other alloc pins; the
// workload is rollback-heavy by construction (asserted via SpecStats).
func TestSpecRollbackSteadyStateAllocs(t *testing.T) {
	g := graph.Path(3)
	cycle := func(msgs int) (*Sim, func()) {
		mk := func(graph.NodeID) Handler { return &pingChain{remaining: msgs} }
		s := New(g, twoRate{}, mk).WithMode(ModeSpec).WithWorkers(2).WithSpecHorizon(1)
		s.Run()
		st := s.SpecStats()
		if st.Rejected == 0 {
			t.Fatalf("workload did not exercise rollback: %+v", st)
		}
		return s, func() {
			s.Reset(twoRate{}, mk)
			if res := s.Run(); res.Msgs != uint64(2*msgs) {
				t.Fatalf("sent %d messages, want %d", res.Msgs, 2*msgs)
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
			2*(long-short), extra, extra/float64(2*(long-short)))
	}
}

// TestSpecResetReuse cycles one engine through spec runs across adversaries
// and back to serial, requiring fresh-engine reproduction each time.
func TestSpecResetReuse(t *testing.T) {
	g := graph.RandomConnected(40, 100, 21)
	mk := func(graph.NodeID) Handler { return &multiFlood{k: 3} }
	advs := []Adversary{SeededRandom{Seed: 5}, Fixed{D: 1}, Skew{Cut: 20, FastD: 1.0 / 16}}
	var reused *Sim
	for i, adv := range advs {
		want := New(g, adv, mk).Run()
		if reused == nil {
			reused = New(g, adv, mk).WithMode(ModeSpec).WithWorkers(3).WithMinParallel(1)
		} else {
			reused.Reset(adv, mk)
		}
		if got := reused.Run(); !reflect.DeepEqual(want, got) {
			t.Fatalf("cycle %d (%s): reused spec engine differs from fresh serial engine", i, adv.Name())
		}
	}
	// Back to serial on the same engine.
	want := New(g, Fixed{D: 1}, mk).Run()
	reused.Reset(Fixed{D: 1}, mk)
	reused.WithMode(ModeSingle)
	if got := reused.Run(); !reflect.DeepEqual(want, got) {
		t.Fatal("reused engine back in ModeSingle differs from fresh serial engine")
	}
}

// TestAutoModeTinyLookaheadSerial: with CPUs available, cloneable handlers,
// a large graph, and a tiny-lookahead adversary — the inputs on which Auto
// once picked the speculative executor — ModeAuto must run serially
// (SpecStats stays zero) and match ModeSingle.
func TestAutoModeTinyLookaheadSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	g := graph.RandomConnected(80, 2100, 5) // 4200 directed links >= AutoMultiLinks
	mk := func() func(graph.NodeID) Handler {
		return func(graph.NodeID) Handler { return &floodHandler{} }
	}
	adv := SeededRandom{Seed: 3} // MinDelay 2^-20 < AutoMinLookahead
	want := New(g, adv, mk()).WithMode(ModeSingle).Run()
	sim := New(g, adv, mk()).WithMode(ModeAuto)
	got := sim.Run()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ModeAuto Result differs from serial")
	}
	if st := sim.SpecStats(); st != (SpecStats{}) {
		t.Fatalf("ModeAuto speculated: %+v", st)
	}
	if c := execpolicy.AsyncAuto(sim.workers, g.Links(), adv.MinDelay(), true); c != execpolicy.AsyncSerial {
		t.Fatalf("AsyncAuto chose %v, want AsyncSerial", c)
	}
}

// TestAutoPolicyWheelDrift pins Auto's window threshold to the calendar
// wheel's resolution — the two must move together or Auto's window
// heuristic stops meaning "one wheel tick": a lookahead of exactly one tick
// engages the windows, anything shorter stays serial.
func TestAutoPolicyWheelDrift(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const links = 1 << 20 // past the Auto pool gate, short of the huge-graph one
	tick := 1.0 / cqBuckets
	if c := execpolicy.AsyncAuto(4, links, tick, true); c != execpolicy.AsyncWindows {
		t.Fatalf("AsyncAuto at one wheel tick chose %v, want AsyncWindows", c)
	}
	if c := execpolicy.AsyncAuto(4, links, math.Nextafter(tick, 0), true); c != execpolicy.AsyncSerial {
		t.Fatalf("AsyncAuto below one wheel tick chose %v, want AsyncSerial", c)
	}
}

// fuzzDelays is an adversary whose per-hop delays are drawn from the fuzz
// input, hashed over (from, to, seq, proto) — random straggler patterns by
// construction, honoring the declared MinDelay.
type fuzzDelays struct {
	data []byte
}

func (f fuzzDelays) MinDelay() float64 { return 1.0 / (1 << 20) }
func (f fuzzDelays) Name() string      { return "fuzz" }
func (f fuzzDelays) Delay(from, to graph.NodeID, seq uint64, p Proto) float64 {
	if len(f.data) == 0 {
		return 0.5
	}
	i := (uint64(from)*2654435761 + uint64(to)*40503 + seq*9176 + uint64(p)) % uint64(len(f.data))
	min := f.MinDelay()
	return min + (1-min)*(float64(f.data[i])+0.5)/256
}

// FuzzSpecRollback injects fuzzer-chosen delay patterns — maximal freedom
// to create cross-shard stragglers — and asserts the speculative executor
// reproduces the serial Result byte-for-byte, at both the adaptive horizon
// and a pinned full-unit horizon.
func FuzzSpecRollback(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 0})
	f.Add([]byte{3, 200, 17, 90, 255, 1, 128})
	f.Add([]byte("speculate responsibly"))
	g := graph.RandomConnected(24, 50, 11)
	f.Fuzz(func(t *testing.T, data []byte) {
		adv := fuzzDelays{data: data}
		mk := func() func(graph.NodeID) Handler {
			return func(graph.NodeID) Handler { return &multiFlood{k: 2} }
		}
		serial := New(g, adv, mk()).WithMode(ModeSingle).KeepTrace().Run()
		for _, horizon := range []float64{0, 1} {
			spec := New(g, adv, mk()).WithMode(ModeSpec).
				WithWorkers(3).WithMinParallel(1).WithSpecHorizon(horizon).KeepTrace().Run()
			if !reflect.DeepEqual(serial, spec) {
				t.Fatalf("horizon=%g: speculative Result differs from serial under fuzzed delays %v",
					horizon, data)
			}
		}
	})
}
