package main

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	dsync "repro"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// scale is the one thing a workload's size hangs on. Users always get full;
// the tests swap in toy.
type scale struct {
	syncBFS, floodFixed, floodRandom, lockstepBFS, checkpoint string
}

var full = scale{
	syncBFS:     "er:n=200,m=2100",
	floodFixed:  "grid3d:64x64x64",
	floodRandom: "pa:n=100000,m=4",
	lockstepBFS: "er:n=200000,m=800000",
	checkpoint:  "grid:40x40",
}

// workload is one named set of inputs. An op is one complete run through the
// default execution mode, because that is what dsync.* and every CLI give a
// user. setup builds everything an op needs from scratch; with a tracer it
// also records spans and the set-up's per-layer numbers.
type workload struct {
	name, why string
	setup     func(sc *scale, seed uint64, tr *tracer) (instance, error)
}

type instance interface {
	// op runs one untraced op and checks its output.
	op() opResult
	// layers runs the traced phase and files the per-layer numbers with tr.
	layers(tr *tracer) error
}

// remote is an instance whose system under test lives in other processes
// that every op starts anew (shard-flood): its ops report their own set-up
// time (opResult.startup) and it reports the workers' retained heap, so the
// timed phase neither repeats its set-up nor reads this process's heap.
type remote interface {
	retainedMB() float64
}

var workloads = []workload{
	{
		name: "sync-bfs",
		why:  "the paper's headline path: BFS under the synchronizer with random delays; 4200 links is just past execpolicy.AutoMultiLinks, so Auto picks Spec and the Mux clone path does most of the work",
		setup: func(sc *scale, seed uint64, tr *tracer) (instance, error) {
			s, err := newSyncStack(tr, seeded(sc.syncBFS, seed), seed, syncBFSBound)
			return &syncBFS{s}, err
		},
	},
	{
		name: "flood-fixed",
		why:  "trivial handlers, working set beyond cache, every event of a time unit in one wheel slot: the calendar queue's degenerate case and the bounded-lag windows' best case (Auto picks Multi)",
		setup: func(sc *scale, _ uint64, tr *tracer) (instance, error) {
			return newFlood(tr, sc.floodFixed, async.Fixed{D: 1}, true)
		},
	},
	{
		name: "flood-random",
		why:  "the same queue used the other way: delays spread over every bucket and the overflow heap, out-of-order pushes, power-law hubs contending on links (Auto stays serial)",
		setup: func(sc *scale, seed uint64, tr *tracer) (instance, error) {
			return newFlood(tr, seeded(sc.floodRandom, seed), async.SeededRandom{Seed: seed}, false)
		},
	},
	{
		name: "lockstep-bfs",
		why:  "syncrun does all the work and async none: the bypass workload for every async-engine change (Auto picks Multi)",
		setup: func(sc *scale, seed uint64, tr *tracer) (instance, error) {
			return newLockstep(tr, seeded(sc.lockstepBFS, seed))
		},
	},
	{
		name: "checkpoint",
		why:  "the same Mux/core/reg/gather state read through the codec instead of through events: stepwise run with eight Snapshot+Restore round trips, also the forced-serial twin of sync-bfs",
		setup: func(sc *scale, seed uint64, tr *tracer) (instance, error) {
			return newCheckpoint(tr, sc.checkpoint, seed)
		},
	},
	{
		name: "shard-flood",
		why:  "flood-fixed's inputs through two worker processes: sockets, frame codec, coordinator merge and process start-up do work nowhere else, so the two rows price the multi-process protocol",
		setup: func(sc *scale, _ uint64, tr *tracer) (instance, error) {
			return newShardFlood(tr, sc.floodFixed)
		},
	},
}

func seeded(spec string, seed uint64) string {
	return spec + ",seed=" + strconv.FormatUint(seed, 10)
}

// opResult is what one op cost and what it computed. work, simTime and
// simMsgs are deterministic: every op of a run must report the same.
type opResult struct {
	elapsed time.Duration
	allocs  uint64
	work    uint64        // events the op executed (Msgs+Acks; M for lockstep)
	simTime float64       // simulated time units, the paper's T(A')
	simMsgs uint64        // simulated messages, the paper's M(A')
	startup time.Duration // a remote instance's set-up share of the op
	err     error         // the output check's verdict
}

// timeOp measures fn's wall time and heap allocations. Output checks run
// after it, outside the measurement.
func timeOp(fn func()) opResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return opResult{elapsed: elapsed, allocs: after.Mallocs - before.Mallocs}
}

func (r opResult) async(res async.Result, err error) opResult {
	r.work, r.simTime, r.simMsgs, r.err = res.Msgs+res.Acks, res.Time, res.Msgs, err
	return r
}

// settledHeap is HeapAlloc after two forced collections: the first finishes
// a cycle already in flight, the second collects from a clean mark.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func buildGraph(tr *tracer, spec string) (*graph.Graph, error) {
	var before uint64
	if tr != nil {
		before = settledHeap()
	}
	var g *graph.Graph
	var err error
	d := tr.span("graph.FromSpec", func() { g, err = graph.FromSpec(spec) })
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.set("graph.build_s", d.Seconds())
		tr.set("graph.bytes_per_link", (float64(settledHeap())-float64(before))/float64(g.Links()))
	}
	return g, nil
}

func sameOutputs(got, want map[graph.NodeID]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for v, w := range want {
		if got[v] != w {
			return fmt.Errorf("node %d output %v, want %v", v, got[v], w)
		}
	}
	return nil
}

// sameResult is byte-identity of everything a run reports.
func sameResult(got, want async.Result) error {
	if got.Time != want.Time || got.QuiesceTime != want.QuiesceTime || got.Msgs != want.Msgs || got.Acks != want.Acks {
		return fmt.Errorf("time/quiesce/msgs/acks %v/%v/%d/%d, want %v/%v/%d/%d",
			got.Time, got.QuiesceTime, got.Msgs, got.Acks, want.Time, want.QuiesceTime, want.Msgs, want.Acks)
	}
	if got.OutSet != nil && want.OutSet != nil {
		if !slices.Equal(got.OutSet, want.OutSet) || !slices.Equal(got.OutBodies, want.OutBodies) {
			return fmt.Errorf("dense outputs differ")
		}
		return nil
	}
	return sameOutputs(got.DecodedOutputs(), want.DecodedOutputs())
}

// asyncChoice is what Auto resolves to for an async engine over g.
func asyncChoice(g *graph.Graph, adv async.Adversary, cloneable bool) execpolicy.AsyncChoice {
	return execpolicy.AsyncAuto(execpolicy.DefaultWorkers(), g.Links(), adv.MinDelay(), cloneable)
}

var asyncModes = map[execpolicy.AsyncChoice]async.ExecutionMode{
	execpolicy.AsyncSerial:  async.ModeSingle,
	execpolicy.AsyncWindows: async.ModeMulti,
	execpolicy.AsyncSpec:    async.ModeSpec,
}

// decompose files the forced-Single op's additive split: the decorators'
// exclusive times, and the engine's self time as what is left of the Run
// span (queue pop/push, link/outbox, dispatch).
func decompose(tr *tracer, run time.Duration, res async.Result) {
	algoCalls, algo := tr.algo.total()
	stackCalls, stack := tr.stack.total()
	advCalls, adv := tr.adversary.total()
	self := run - algo - stack - adv
	events := res.Msgs + res.Acks
	tr.set("apps.handler_s", algo.Seconds())
	tr.set("apps.handler_calls", float64(algoCalls))
	tr.set("core.stack_s", stack.Seconds())
	tr.set("core.stack_calls", float64(stackCalls))
	tr.set("async.adversary_s", adv.Seconds())
	tr.set("async.adversary_calls", float64(advCalls))
	tr.set("async.self_s", self.Seconds())
	tr.set("async.events", float64(events))
	tr.set("async.ns_per_event", float64(self.Nanoseconds())/float64(events))
	tr.set("sim.time", res.Time)
	tr.set("sim.msgs", float64(res.Msgs))
}

// wasteRatio is default-mode handler calls over forced-Single ones: 1 means
// no speculative work was thrown away.
func wasteRatio(tr *tracer, defaultCalls int64) {
	if single, _ := tr.algo.total(); single > 0 {
		tr.set("apps.waste_ratio", float64(defaultCalls)/float64(single))
	}
}

// syncStack is what sync-bfs and checkpoint share: a graph, BFS from node 0,
// its lockstep reference run (Theorem 5.2: the synchronized outputs must
// equal it), the pulse bound, the covers and the random-delay adversary.
type syncStack struct {
	g      *graph.Graph
	mk     func(graph.NodeID) syncrun.Handler
	ref    syncrun.Result
	bound  int
	covers *dsync.Layered
	adv    async.Adversary
}

// syncBFSBound is sync-bfs's pulse bound. The synchronizer's message count is
// a step function of the bound (on er:n=500,m=2100: 37.7k at 7, 42.8k at 8),
// so a bound taken from each seed's lockstep rounds makes a seed whose rounds
// differ a different workload. The full graph took four rounds on each of 24
// seeds tried, so this is the usual rounds+2 there; it is pinned in case a
// seed comes out shallower.
const syncBFSBound = 6

// newSyncStack's bound is the usual rounds+2 of the lockstep run, but at
// least minBound.
func newSyncStack(tr *tracer, spec string, seed uint64, minBound int) (*syncStack, error) {
	g, err := buildGraph(tr, spec)
	if err != nil {
		return nil, err
	}
	s := &syncStack{g: g, mk: dsync.NewBFS([]graph.NodeID{0}), adv: dsync.RandomDelays(seed)}
	d := tr.span("syncrun.Run", func() { s.ref = dsync.RunSync(g, s.mk) })
	tr.set("syncrun.ref_run_s", d.Seconds())
	s.bound = max(s.ref.Rounds+2, minBound)
	d = tr.span("dsync.BuildCovers", func() { s.covers = dsync.BuildCovers(g, s.bound) })
	tr.set("cover.build_s", d.Seconds())
	return s, nil
}

func (s *syncStack) config(mode async.ExecutionMode) core.Config {
	return core.Config{Graph: s.g, Bound: s.bound, Adversary: s.adv, Layered: s.covers, Mode: mode}
}

// sim assembles the synchronizer stack the way core.NewSynchronizedSim does,
// from the same public parts, with the tracer's decorators around the
// adversary, each node's Mux and the algorithm inside it.
func (s *syncStack) sim(tr *tracer, mode async.ExecutionMode) *async.Sim {
	sched := core.NewSchedule(s.bound)
	algo := tr.wrapAlgo(s.mk)
	mk := tr.wrapMux(func(id graph.NodeID) *async.Mux { return core.NewNodeHandler(sched, s.covers, algo(id)) })
	var sim *async.Sim
	d := tr.span("async.New", func() { sim = async.New(s.g, tr.wrapAdversary(s.adv), mk).WithMode(mode) })
	tr.set("async.new_s", d.Seconds())
	return sim
}

type syncBFS struct{ *syncStack }

func (w *syncBFS) op() opResult {
	var res async.Result
	r := timeOp(func() { res = dsync.SynchronizeWithCovers(w.g, w.bound, w.adv, w.covers, w.mk) })
	return r.async(res, sameOutputs(res.Outputs, w.ref.Outputs))
}

func (w *syncBFS) layers(tr *tracer) error {
	cold := w.op()
	if cold.err != nil {
		return cold.err
	}
	tr.set("async.first_run_s", cold.elapsed.Seconds())

	// One untraced op per mode; all must report the same result.
	choice := asyncChoice(w.g, w.adv, true)
	tr.set("execpolicy.async_choice", float64(choice))
	var first async.Result
	var base time.Duration
	for _, mode := range []async.ExecutionMode{async.ModeSingle, async.ModeMulti, async.ModeSpec} {
		var sim *async.Sim
		var res async.Result
		d := tr.span(mode.String()+" op", func() {
			sim = core.NewSynchronizedSim(w.config(mode), w.mk)
			res = sim.Run()
		})
		tr.set("async."+mode.String()+".run_s", d.Seconds())
		if mode == async.ModeSingle {
			first = res
		} else if err := sameResult(res, first); err != nil {
			return fmt.Errorf("mode %v differs from single: %v", mode, err)
		}
		if mode == asyncModes[choice] {
			base = d
		}
		if st := sim.SpecStats(); mode == async.ModeSpec && st.Executed > 0 {
			tr.set("async.spec.rounds", float64(st.Rounds))
			tr.set("async.spec.commit_ratio", float64(st.Committed)/float64(st.Executed))
			tr.set("async.spec.replayed", float64(st.Replayed))
		}
	}

	tr.beginOp(false)
	var res async.Result
	d := tr.span("default op", func() {
		sim := w.sim(tr, async.ModeAuto)
		tr.span("Sim.Run", func() { res = sim.Run() })
	})
	if err := sameResult(res, first); err != nil {
		return fmt.Errorf("traced default op differs from single: %v", err)
	}
	tr.set("trace.overhead_ratio", d.Seconds()/base.Seconds())
	defaultCalls, _ := tr.algo.total()

	tr.beginOp(true)
	sim := w.sim(tr, async.ModeSingle)
	d = tr.span("Sim.Run", func() { res = sim.Run() })
	if err := sameResult(res, first); err != nil {
		return fmt.Errorf("traced single op differs from untraced: %v", err)
	}
	decompose(tr, d, res)
	wasteRatio(tr, defaultCalls)
	return nil
}

// flood is flood-fixed and flood-random: shard's flood workload on one
// engine that is Reset between ops.
type flood struct {
	g     *graph.Graph
	adv   async.Adversary
	mk    func(graph.NodeID) async.Handler
	sim   *async.Sim
	sweep bool // also time one op per forced mode in the traced phase
}

func newFlood(tr *tracer, spec string, adv async.Adversary, sweep bool) (*flood, error) {
	g, err := buildGraph(tr, spec)
	if err != nil {
		return nil, err
	}
	mk, err := shard.NewWorkload("flood", shard.WorkloadConfig{})
	if err != nil {
		return nil, err
	}
	f := &flood{g: g, adv: adv, mk: mk, sweep: sweep}
	d := tr.span("async.New", func() { f.sim = async.New(g, adv, mk).DenseOutputs() })
	tr.set("async.new_s", d.Seconds())
	return f, nil
}

// run is one op: rearm the engine (with the tracer's decorators, if any)
// and run it to quiescence. d is the Run span alone.
func (f *flood) run(tr *tracer, mode async.ExecutionMode) (res async.Result, d time.Duration) {
	f.sim.WithMode(mode)
	tr.span("Sim.Reset", func() { f.sim.Reset(tr.wrapAdversary(f.adv), tr.wrapHandler(f.mk)) })
	d = tr.span("Sim.Run", func() { res = f.sim.Run() })
	return res, d
}

// check: a flood crosses every link once in each direction, every node
// outputs, and no arena segment is left live.
func (f *flood) check(res async.Result) error {
	if res.Msgs != uint64(f.g.Links()) {
		return fmt.Errorf("%d messages, want %d", res.Msgs, f.g.Links())
	}
	for v, set := range res.OutSet {
		if !set {
			return fmt.Errorf("node %d has no output", v)
		}
	}
	if live := f.sim.Arena().Live(); live != 0 {
		return fmt.Errorf("%d arena segments live after the run", live)
	}
	return nil
}

func (f *flood) op() opResult {
	var res async.Result
	r := timeOp(func() { res, _ = f.run(nil, async.ModeAuto) })
	return r.async(res, f.check(res))
}

func (f *flood) layers(tr *tracer) error {
	cold := f.op()
	if cold.err != nil {
		return cold.err
	}
	tr.set("async.first_run_s", cold.elapsed.Seconds())

	choice := asyncChoice(f.g, f.adv, false)
	tr.set("execpolicy.async_choice", float64(choice))
	modes := []async.ExecutionMode{asyncModes[choice]}
	if f.sweep {
		modes = []async.ExecutionMode{async.ModeSingle, async.ModeMulti}
	}
	var first async.Result
	var base time.Duration
	for i, mode := range modes {
		var res async.Result
		d := tr.span(mode.String()+" op", func() { res, _ = f.run(nil, mode) })
		tr.set("async."+mode.String()+".run_s", d.Seconds())
		if i == 0 {
			first = res
		} else if err := sameResult(res, first); err != nil {
			return fmt.Errorf("mode %v differs from %v: %v", mode, modes[0], err)
		}
		if mode == asyncModes[choice] {
			base = d
		}
	}

	tr.beginOp(false)
	var res async.Result
	d := tr.span("default op", func() { res, _ = f.run(tr, async.ModeAuto) })
	if err := sameResult(res, first); err != nil {
		return fmt.Errorf("traced default op differs from untraced: %v", err)
	}
	tr.set("trace.overhead_ratio", d.Seconds()/base.Seconds())
	defaultCalls, _ := tr.algo.total()

	tr.beginOp(true)
	res, d = f.run(tr, async.ModeSingle)
	if err := sameResult(res, first); err != nil {
		return fmt.Errorf("traced single op differs from untraced: %v", err)
	}
	decompose(tr, d, res)
	wasteRatio(tr, defaultCalls)
	return nil
}

// lockstep is lockstep-bfs: BFS through dsync.RunSync, a new runner per op.
type lockstep struct {
	g    *graph.Graph
	mk   func(graph.NodeID) syncrun.Handler
	dist []int // graph.BFS distances, the independent reference
}

func newLockstep(tr *tracer, spec string) (*lockstep, error) {
	g, err := buildGraph(tr, spec)
	if err != nil {
		return nil, err
	}
	return &lockstep{g: g, mk: dsync.NewBFS([]graph.NodeID{0})}, nil
}

func (l *lockstep) run(tr *tracer, mode syncrun.ExecutionMode) (res syncrun.Result, d time.Duration) {
	mk := tr.wrapAlgo(l.mk)
	d = tr.span("syncrun.Run", func() { res = dsync.RunSyncMode(l.g, mode, mk) })
	return res, d
}

// check: BFS crosses every link once in each direction and every node's
// distance equals the graph's own BFS.
func (l *lockstep) check(res syncrun.Result) error {
	if res.M != uint64(l.g.Links()) {
		return fmt.Errorf("%d messages, want %d", res.M, l.g.Links())
	}
	if l.dist == nil {
		l.dist = l.g.BFS(0)
	}
	if len(res.Outputs) != len(l.dist) {
		return fmt.Errorf("%d outputs, want %d", len(res.Outputs), len(l.dist))
	}
	for v, want := range l.dist {
		if out, ok := res.Outputs[graph.NodeID(v)].(dsync.BFSResult); !ok || out.Dist != want {
			return fmt.Errorf("node %d output %v, want distance %d", v, res.Outputs[graph.NodeID(v)], want)
		}
	}
	return nil
}

func (l *lockstep) result(r opResult, res syncrun.Result) opResult {
	r.work, r.simTime, r.simMsgs, r.err = res.M, float64(res.Rounds), res.M, l.check(res)
	return r
}

func (l *lockstep) op() opResult {
	var res syncrun.Result
	r := timeOp(func() { res, _ = l.run(nil, syncrun.ModeAuto) })
	return l.result(r, res)
}

func (l *lockstep) layers(tr *tracer) error {
	cold := l.op()
	if cold.err != nil {
		return cold.err
	}
	tr.set("syncrun.first_run_s", cold.elapsed.Seconds())

	multi := execpolicy.LockstepMulti(execpolicy.DefaultWorkers(), l.g.N())
	var base time.Duration
	for _, mode := range []syncrun.ExecutionMode{syncrun.ModeSingle, syncrun.ModeMulti} {
		res, d := l.run(nil, mode)
		if err := l.check(res); err != nil {
			return fmt.Errorf("mode %v: %v", mode, err)
		}
		tr.set("syncrun."+mode.String()+".run_s", d.Seconds())
		if multi == (mode == syncrun.ModeMulti) {
			base = d
		}
	}
	if multi {
		tr.set("execpolicy.lockstep_multi", 1)
	}

	tr.beginOp(false)
	res, d := l.run(tr, syncrun.ModeAuto)
	if err := l.check(res); err != nil {
		return fmt.Errorf("traced default op: %v", err)
	}
	tr.set("trace.overhead_ratio", d.Seconds()/base.Seconds())
	defaultCalls, _ := tr.algo.total()

	tr.beginOp(true)
	res, d = l.run(tr, syncrun.ModeSingle)
	if err := l.check(res); err != nil {
		return fmt.Errorf("traced single op: %v", err)
	}
	calls, algo := tr.algo.total()
	self := d - algo
	tr.set("apps.handler_s", algo.Seconds())
	tr.set("apps.handler_calls", float64(calls))
	tr.set("syncrun.self_s", self.Seconds())
	tr.set("syncrun.ns_per_msg", float64(self.Nanoseconds())/float64(res.M))
	tr.set("syncrun.pulses", float64(res.Rounds))
	tr.set("sim.time", float64(res.Rounds))
	tr.set("sim.msgs", float64(res.M))
	wasteRatio(tr, defaultCalls)
	return nil
}

// checkpoint drives a synchronized BFS stepwise: an eighth of the events,
// Snapshot, Restore into the same handle, eight times, then FinishResult.
type checkpoint struct {
	*syncStack
	want  async.Result // the uninterrupted run
	chunk uint64
}

const checkpoints = 8

func newCheckpoint(tr *tracer, spec string, seed uint64) (*checkpoint, error) {
	s, err := newSyncStack(tr, spec, seed, 0)
	if err != nil {
		return nil, err
	}
	c := &checkpoint{syncStack: s}
	// Forced Single: on this graph Auto resolves to Spec, which today takes
	// two orders of magnitude longer for the same result (see sync-bfs).
	tr.span("core.Synchronize", func() { c.want = core.Synchronize(s.config(async.ModeSingle), s.mk) })
	if err := sameOutputs(c.want.Outputs, s.ref.Outputs); err != nil {
		return nil, fmt.Errorf("uninterrupted run differs from lockstep: %v", err)
	}
	c.chunk = (c.want.Msgs+c.want.Acks)/checkpoints + 1
	return c, nil
}

// stepTimes is where a stepwise op's time went.
type stepTimes struct {
	steps, snapshot, restore, open time.Duration
	frameBytes                     []float64
}

func (c *checkpoint) stepwise(tr *tracer, run *async.Sim) (res async.Result, st stepTimes, err error) {
	for i := 0; i < checkpoints; i++ {
		st.steps += tr.span("Sim.RunSteps", func() { run.RunSteps(c.chunk) })
		var frame []byte
		st.snapshot += tr.span("Sim.Snapshot", func() { frame, err = run.Snapshot() })
		if err != nil {
			return res, st, err
		}
		st.frameBytes = append(st.frameBytes, float64(len(frame)))
		if tr != nil {
			// Restore opens the frame itself; this prices that share.
			st.open += tr.span("wire.OpenSnapshot", func() { _, err = wire.OpenSnapshot(frame) })
			if err != nil {
				return res, st, err
			}
		}
		st.restore += tr.span("Sim.Restore", func() { err = run.Restore(frame) })
		if err != nil {
			return res, st, err
		}
	}
	if !run.RunSteps(0) {
		return res, st, fmt.Errorf("not quiescent after %d chunks of %d events", checkpoints, c.chunk)
	}
	return run.FinishResult(), st, nil
}

func (c *checkpoint) op() opResult {
	var res async.Result
	var err error
	r := timeOp(func() {
		res, _, err = c.stepwise(nil, dsync.NewSynchronizedRun(c.g, c.bound, c.adv, c.mk))
	})
	if err == nil {
		err = sameResult(res, c.want)
	}
	return r.async(res, err)
}

func (c *checkpoint) layers(tr *tracer) error {
	cold := c.op()
	if cold.err != nil {
		return cold.err
	}
	tr.set("async.first_run_s", cold.elapsed.Seconds())
	base := c.op()
	if base.err != nil {
		return base.err
	}
	// RunSteps is serial by definition and never consults the policy.
	tr.set("execpolicy.async_choice", float64(execpolicy.AsyncSerial))

	// The stepwise op is serial, so one traced op is both the default-mode
	// op and the Single decomposition.
	tr.beginOp(true)
	var res async.Result
	var st stepTimes
	var err error
	d := tr.span("default op", func() { res, st, err = c.stepwise(tr, c.sim(tr, async.ModeAuto)) })
	if err == nil {
		err = sameResult(res, c.want)
	}
	if err != nil {
		return fmt.Errorf("traced op: %v", err)
	}
	tr.set("trace.overhead_ratio", (d-st.open).Seconds()/base.elapsed.Seconds())
	decompose(tr, st.steps, res)
	tr.set("apps.waste_ratio", 1)
	tr.set("async.steps_s", st.steps.Seconds())
	tr.set("async.snapshot_s", st.snapshot.Seconds())
	tr.set("async.restore_s", st.restore.Seconds())
	tr.set("wire.open_s", st.open.Seconds())
	tr.set("wire.frame_bytes", median(st.frameBytes))
	var total float64
	for _, b := range st.frameBytes {
		total += b
	}
	tr.set("wire.snapshot_mb_per_s", total/1e6/st.snapshot.Seconds())
	return nil
}

// shardFlood is flood-fixed's inputs through shard.Run with two worker
// processes, checked against the in-process serial engine.
type shardFlood struct {
	cfg    shard.Config
	inproc *flood
	want   async.Result
	last   *shard.Report
}

func newShardFlood(tr *tracer, spec string) (*shardFlood, error) {
	f, err := newFlood(tr, spec, async.Fixed{D: 1}, false)
	if err != nil {
		return nil, err
	}
	s := &shardFlood{inproc: f, cfg: shard.Config{
		GraphSpec: spec, Shards: 2, Workload: "flood", Adversary: "fixed:1", Launch: shard.LaunchProcess,
	}}
	s.want, _ = f.run(tr, async.ModeSingle)
	if err := f.check(s.want); err != nil {
		return nil, fmt.Errorf("in-process reference: %v", err)
	}
	// shard.Run reports a decoded output map; decode the reference once.
	s.want.Outputs, s.want.OutBodies, s.want.OutSet = s.want.DecodedOutputs(), nil, nil
	if tr == nil {
		// Only the traced phase runs the in-process engine again; the timed
		// coordinator should not carry its heap.
		s.inproc = nil
	}
	return s, nil
}

func (s *shardFlood) run(tr *tracer) (rep *shard.Report, d time.Duration, err error) {
	d = tr.span("shard.Run", func() { rep, err = shard.Run(s.cfg) })
	return rep, d, err
}

func (s *shardFlood) op() opResult {
	var rep *shard.Report
	var err error
	r := timeOp(func() { rep, _, err = s.run(nil) })
	if err != nil {
		r.err = err
		return r
	}
	s.last = rep
	r = r.async(rep.Result, sameResult(rep.Result, s.want))
	r.work, r.startup = rep.Stats.TotalEvents, time.Duration(rep.Stats.StartupNs)
	return r
}

// retainedMB is the workers' settled heaps: the coordinator holds little.
func (s *shardFlood) retainedMB() float64 {
	var mb int64
	if s.last != nil {
		for _, sh := range s.last.Shards {
			mb += sh.HeapMB
		}
	}
	return float64(mb)
}

func (s *shardFlood) layers(tr *tracer) error {
	cold := s.op()
	if cold.err != nil {
		return cold.err
	}
	tr.set("async.first_run_s", cold.elapsed.Seconds())
	base := s.op()
	if base.err != nil {
		return base.err
	}
	tr.set("execpolicy.async_choice", float64(asyncChoice(s.inproc.g, s.inproc.adv, false)))

	var stats []shard.Stats
	var runs []float64
	for i := 0; i < 2; i++ {
		tr.beginOp(false)
		rep, d, err := s.run(tr)
		if err == nil {
			err = sameResult(rep.Result, s.want)
		}
		if err != nil {
			return fmt.Errorf("traced op: %v", err)
		}
		runs = append(runs, d.Seconds())
		stats = append(stats, rep.Stats)
		s.last = rep
	}
	med := func(f func(shard.Stats) float64) float64 {
		var xs []float64
		for _, st := range stats {
			xs = append(xs, f(st))
		}
		return median(xs)
	}
	tr.set("trace.overhead_ratio", median(runs)/base.elapsed.Seconds())
	tr.set("shard.startup_s", med(func(st shard.Stats) float64 { return float64(st.StartupNs) / 1e9 }))
	tr.set("shard.worker_s", med(func(st shard.Stats) float64 { return float64(st.WorkerNs) / 1e9 }))
	tr.set("shard.comm_s", med(func(st shard.Stats) float64 { return float64(st.CommNs) / 1e9 }))
	tr.set("shard.merge_s", med(func(st shard.Stats) float64 { return float64(st.MergeNs) / 1e9 }))
	tr.set("shard.windows", med(func(st shard.Stats) float64 { return float64(st.Windows) }))
	tr.set("shard.frames", med(func(st shard.Stats) float64 { return float64(st.Frames) }))
	tr.set("shard.frame_bytes", med(func(st shard.Stats) float64 { return float64(st.FrameBytes) }))
	tr.set("shard.worker_heap_mb", s.retainedMB())
	tr.set("async.events", med(func(st shard.Stats) float64 { return float64(st.TotalEvents) }))
	tr.set("sim.time", s.want.Time)
	tr.set("sim.msgs", float64(s.want.Msgs))

	// The same inputs on the warm in-process serial engine price the
	// protocol: shard.vs_inproc is its whole cost as a ratio.
	d := tr.span("single op", func() { s.inproc.run(nil, async.ModeSingle) })
	tr.set("async.single.run_s", d.Seconds())
	tr.set("shard.vs_inproc", median(runs)/d.Seconds())
	return nil
}
