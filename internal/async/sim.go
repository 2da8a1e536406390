package async

import (
	"fmt"
	"math"

	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// ExecutionMode selects how Sim.Run consumes the event queue. Results are
// byte-identical across modes; the choice is purely about wall-clock
// performance.
type ExecutionMode int

const (
	// ModeAuto picks ModeMulti when the graph is large enough to amortize
	// per-window coordination, more than one CPU is available and the
	// adversary's lookahead makes safe windows worth a barrier; otherwise
	// ModeSingle. It never picks ModeSpec, which no measured workload runs
	// faster than serial. The decision lives in execpolicy.AsyncAuto,
	// shared with the lockstep runner's heuristic.
	ModeAuto ExecutionMode = iota
	// ModeSingle pops one event at a time on the calling goroutine.
	ModeSingle
	// ModeMulti executes bounded-lag time windows on a worker pool: per
	// window, each worker drains its own node shard's event wheel, staging
	// effects that merge deterministically at the window barrier.
	ModeMulti
	// ModeSpec executes speculative rounds on a worker pool: each worker
	// optimistically drains its shard past the safe window up to an
	// adaptive horizon, running cloned handlers and logging their effects;
	// a serial commit walk at the round barrier replays the effects in
	// global (t, seq) order through the serial engine's own code path,
	// detects stragglers, and rolls back only the poisoned suffix. Clones
	// are copied through the handlers' wire.StateCodec, so every handler
	// must implement it (and pass its StateCodecProbe); otherwise the run
	// falls back to ModeMulti (see SpecStats.FellBack).
	ModeSpec
)

func (m ExecutionMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSingle:
		return "single"
	case ModeMulti:
		return "multi"
	case ModeSpec:
		return "spec"
	}
	return fmt.Sprintf("ExecutionMode(%d)", int(m))
}

// Sim is a deterministic discrete-event simulation of one asynchronous
// execution: a graph, one Handler per node, and a delay adversary.
//
// All per-link state is dense: the graph's CSR link index (graph.LinkID)
// addresses the in-flight flags, the transmission sequences and one outbox
// pointer per link, all pre-sized at New, and message bodies are wire.Body
// values end to end — the send/dispatch/deliver hot path performs no map
// operations, no interface boxing, and no steady-state allocations.
// Per-protocol message counts live in a flat slice indexed by Proto (the
// map form exists only at the Result/Stats boundary), and node outputs are
// typed wire.Body values (outval encoding).
// Variable-length segments come from a per-run arena and are recycled when
// each message's lifecycle ends (after the sender's Ack callback).
//
// Run supports a bounded-lag parallel mode (ModeMulti): because every
// adversary declares a positive delay lower bound (Adversary.MinDelay),
// all events inside one MinDelay-wide window are pairwise independent
// across nodes — any event they cause lands at or beyond the window's end.
// Events are owned by the node whose handler they invoke (deliveries by
// the receiver, ack-returns by the sender), the calendar queue is sharded
// by owner across the workers, and each worker executes its shard's window
// slice in (t, seq) order against worker-private staging buffers. At the
// window barrier the staged schedules merge in exactly the order the
// serial engine would have issued them, so event sequence numbers — and
// therefore every tie-break, every Result field, and the message trace —
// are byte-identical to ModeSingle. Handlers on different nodes must not
// share mutable state (read-only shared data is fine), the same contract
// the lockstep runner's Multi mode imposes.
type Sim struct {
	g         *graph.Graph
	adv       Adversary
	lookahead float64 // adv.MinDelay(), validated at New/Reset
	// faults is the schedule unwrapped from a faultyAdv adversary at New/Reset
	// (nil when absent). It is consulted once per transmission attempt at
	// dispatch — the same point in the event order in every execution mode,
	// so fault decisions are byte-identical across Single/Multi/Spec/shard.
	faults   *FaultSchedule
	handlers []Handler
	nodes    []Node

	// nodeBase mirrors g.NodeBase(): per-node arrays (handlers, nodes, the
	// output table) are NLocal-sized and indexed by id - nodeBase.
	// Whole graphs have base 0, so the subtraction is free noise there.
	nodeBase graph.NodeID

	// Shard-staged mode (see shard.go): handlers run through worker context
	// 0, whose schedule calls stage exactly like a ModeMulti worker's,
	// because event seqs are granted by the cross-process coordinator's
	// merge.
	shardMode bool

	mode        ExecutionMode
	workers     int
	minParallel int
	pool        int // the pool Run resolved: 1 unless a parallel mode runs

	events  eventQueue   // ModeSingle and shard-staged event store
	shards  []eventQueue // parallel-mode per-worker event stores, by owner node
	sharded bool
	eventSq uint64

	// Per-directed-link hot state, indexed by graph.LinkID and split by
	// temperature: busy is the 1-byte in-flight flag every send and ack
	// touches; txSeq is the 4-byte transmission sequence the adversary is
	// consulted with (overflow-checked); boxes holds the contention queues
	// — a slot is nil unless the link has messages queued behind an
	// in-flight one, so a link costs 13 bytes, not an outbox struct. The
	// records come from the sending context's outboxSlab (see link.go);
	// box slots are only written by the link's owning worker, so they are
	// race-free in the parallel modes.
	busy  []bool
	txSeq []uint32
	boxes []*outbox

	// out holds the node outputs; owner-sharded workers write only their
	// own nodes' (disjoint) slots.
	out      outval.Table
	denseOut bool

	keepTrace bool
	maxEvents uint64
	running   bool

	// resumed marks an engine whose state was loaded from a snapshot
	// (Restore/ShardRestoreFrames): the next run continues the interrupted
	// one, so handlers are not re-initialized and pending events already
	// populate the queue.
	resumed bool

	// inWindow is true while a parallel window or speculative round is in
	// flight — between fan-out and barrier merge, the engine's counters are
	// a committed prefix and Stats refuses to serve them as a snapshot.
	inWindow bool

	// direct is the apply-immediately execution context (ModeSingle, the
	// Init phase, window merges and the speculative commit walk); its ledger
	// is the engine's committed totals. wctx are the worker contexts of the
	// parallel modes and of shard-staged mode.
	direct       execCtx
	wctx         []execCtx
	workerPanics []any
	mergeCur     []int

	// Speculative-executor state (ModeSpec); see spec.go. mk is retained so
	// rounds can build clone targets lazily.
	specMk        func(id graph.NodeID) Handler
	specClones    []Handler // per-node clone slot, ping-ponged with handlers
	specCloneEp   []uint64  // round epoch when specClones[v] was refreshed
	specSwapEp    []uint64  // round epoch when handlers[v]/specClones[v] swapped
	specRejEp     []uint64  // round epoch when node v owned a rejected event
	specOutEp     []uint64  // round epoch when v's speculative output view became valid
	specOutView   []bool    // speculative-phase view of out.Has(v)
	specOutSaved  []bool    // out.Has(v) at the round start (repair's evolving local view)
	specRoundEp   uint64    // current round epoch; never reused, survives Reset
	specNewMin    float64   // min t scheduled during the in-flight commit walk
	specWalking   bool      // commit walk in progress (schedule feeds specNewMin)
	specFixedSpan float64   // WithSpecHorizon; 0 = adaptive
	specRelease   []wire.Seg
	swallowCtx    execCtx
	specStats     SpecStats

	// arena backs Body.Seg segments; sent segments return to it after the
	// ack completes the message's lifecycle.
	arena wire.Arena

	// State-plane scratch: the length of the last Snapshot frame, which
	// sizes the next one's buffer, and the pending events it sorts.
	lastFrame int
	snapEvs   []evRef
}

// SpecStats is the speculative executor's round accounting: how many
// barrier rounds ran, how many events were executed optimistically, how
// many of those committed, how many were rolled back and re-executed in a
// later round, and how many committed events needed their handler's state
// transition replayed because the node also owned a rolled-back event.
// Rejected/Executed is the rollback rate; the benchmark module reports
// Committed/Executed as async.spec.commit_ratio. FellBack reports that a
// ModeSpec run used the bounded-lag executor instead because at least one
// handler has no wire.StateCodec to copy its clones through, or fails its
// StateCodecProbe.
type SpecStats struct {
	Rounds    uint64
	Executed  uint64
	Committed uint64
	Rejected  uint64
	Replayed  uint64
	FellBack  bool
}

// TraceKind distinguishes delivery-trace entry types. The zero value is a
// normal delivery, so fault-free traces are unchanged by the field.
type TraceKind uint8

const (
	// traceDeliver is a delivered message (the zero value).
	traceDeliver TraceKind = iota
	// traceUndeliverable records a message abandoned after its retransmit
	// budget was exhausted by the fault schedule — typed evidence instead
	// of a hang. Its (T, Seq) key is the event that issued the final failed
	// attempt.
	traceUndeliverable
)

// TraceEntry records one delivered message (KeepTrace). Entries appear in
// delivery order — the engine's (t, seq) event order — and are identical
// across execution modes. Note that for segment-carrying bodies the Seg
// handle value, not its contents, is recorded; concurrent arena allocation
// in ModeMulti may assign different handles than ModeSingle (no shipped
// protocol carries segments in traced runs).
type TraceEntry struct {
	T        float64
	Seq      uint64
	From, To graph.NodeID
	Msg      Msg
	Kind     TraceKind
}

// Result summarizes one asynchronous run. Every field is safe to retain
// after Sim.Reset reuses the engine.
type Result struct {
	// Time is the normalized time (τ = 1) at which the last node produced
	// its output — the paper's time complexity measure (Appendix B).
	Time float64
	// QuiesceTime is when the last event of any kind fired (auxiliary
	// cleanup may continue after outputs, §1.3.1).
	QuiesceTime float64
	// Msgs counts algorithm messages (excludes link-level acks).
	Msgs uint64
	// Acks counts link-level acknowledgments (the model's 2x factor).
	Acks uint64
	// Dropped counts transmission attempts lost to the fault schedule
	// (wire drops, crashed receivers, down links). Zero without faults.
	Dropped uint64
	// Retrans counts retransmission attempts the delivery layer scheduled
	// for lost transmissions (each consumes budget and a fresh adversary
	// delay).
	Retrans uint64
	// Undeliverable counts messages abandoned with their retransmit budget
	// exhausted; each also appears as a traceUndeliverable entry in traced
	// runs.
	Undeliverable uint64
	// PerProto breaks Msgs down by protocol tag (materialized from the
	// engine's dense counters at this boundary).
	PerProto map[Proto]uint64
	// Outputs maps node -> decoded output for nodes that called Output
	// (nil with DenseOutputs).
	Outputs map[graph.NodeID]any
	// OutBodies/OutSet are the dense typed outputs, populated only with
	// DenseOutputs and by the shard coordinator: OutSet[v] reports whether
	// node v output, OutBodies[v] is its outval-encoded value. Finishing a
	// run in this form allocates two slices and builds no map.
	OutBodies []wire.Body
	OutSet    []bool
	// Trace lists every delivered message (only with KeepTrace).
	Trace []TraceEntry
}

// New builds a simulation on g (a whole graph or a Subrange view), calling
// mk for each node in ascending order and binding the result (Rebinder).
func New(g *graph.Graph, adv Adversary, mk func(id graph.NodeID) Handler) *Sim {
	s := &Sim{
		g:           g,
		adv:         adv,
		lookahead:   checkedLookahead(adv),
		faults:      faultsOf(adv),
		nodeBase:    g.NodeBase(),
		handlers:    make([]Handler, g.NLocal()),
		nodes:       make([]Node, g.NLocal()),
		busy:        make([]bool, g.Links()),
		txSeq:       make([]uint32, g.Links()),
		boxes:       make([]*outbox, g.Links()),
		maxEvents:   1 << 34,
		workers:     execpolicy.DefaultWorkers(),
		minParallel: defaultMinParallel,
		specMk:      mk,
	}
	s.direct = execCtx{s: s, direct: true}
	s.out.Init(g.NLocal())
	for i := 0; i < g.NLocal(); i++ {
		id := s.nodeBase + graph.NodeID(i)
		s.nodes[i] = Node{id: id, sim: s}
		s.handlers[i] = s.build(mk, graph.NodeID(i))
	}
	return s
}

// build constructs local node i's handler with mk and binds it to its node:
// the one place the engine calls Rebind.
func (s *Sim) build(mk func(id graph.NodeID) Handler, i graph.NodeID) Handler {
	h := mk(s.nodeBase + i)
	if rb, ok := h.(Rebinder); ok {
		rb.Rebind(&s.nodes[i])
	}
	return h
}

// li maps a global node id to its slot in the per-node arrays (identity
// on whole graphs).
func (s *Sim) li(id graph.NodeID) graph.NodeID { return id - s.nodeBase }

// checkedLookahead validates the adversary's declared delay lower bound.
func checkedLookahead(adv Adversary) float64 {
	la := adv.MinDelay()
	if !(la > 0 && la <= 1) {
		panic(fmt.Sprintf("async: adversary %q declares MinDelay %g outside (0,1]", adv.Name(), la))
	}
	return la
}

// defaultMinParallel is the smallest queue population for which a ModeMulti
// window fans out to goroutines; smaller windows run their shards inline
// (through the same staging, so results are identical either way).
const defaultMinParallel = 128

// WithMode selects the execution mode (default ModeAuto).
func (s *Sim) WithMode(m ExecutionMode) *Sim { s.mode = m; return s }

// WithWorkers caps the parallel worker pool (default GOMAXPROCS, capped by
// execpolicy.MaxWorkers). ModeAuto additionally clamps the pool it runs
// with to GOMAXPROCS; a forced parallel mode keeps an oversubscribed count
// (tests force 4 workers on 1 CPU to exercise the concurrent paths).
func (s *Sim) WithWorkers(k int) *Sim {
	execpolicy.ValidateWorkers("async", k)
	s.workers = k
	return s
}

// WithSpecHorizon pins the speculative round horizon to a fixed span of
// simulated time (0, the default, is adaptive: the engine doubles the
// horizon after fully-committed rounds and shrinks it to twice the
// observed commit span after a rollback). Spans below the adversary's
// MinDelay are clamped up to it at Run — the safe window always commits.
// Results are byte-identical for every horizon; the knob only trades
// speculation depth against rollback waste, and exists mainly so tests and
// experiments can force heavy-rollback regimes.
func (s *Sim) WithSpecHorizon(h float64) *Sim {
	if h < 0 || math.IsNaN(h) {
		panic(fmt.Sprintf("async: speculation horizon %g invalid", h))
	}
	s.specFixedSpan = h
	return s
}

// SpecStats reports the speculative executor's accounting for the current
// or last run (Reset zeroes it). All-zero outside ModeSpec.
func (s *Sim) SpecStats() SpecStats { return s.specStats }

// WithMinParallel sets the smallest queue population for which a ModeMulti
// window fans out to goroutines (default 128); tests lower it to force the
// concurrent path on small graphs — results are byte-identical regardless.
func (s *Sim) WithMinParallel(k int) *Sim {
	if k < 1 {
		panic(fmt.Sprintf("async: parallel threshold %d < 1", k))
	}
	s.minParallel = k
	return s
}

// KeepTrace enables message-trace recording (determinism tests compare
// traces across execution modes).
func (s *Sim) KeepTrace() *Sim { s.keepTrace = true; return s }

// DenseOutputs makes Run return outputs as the dense OutBodies/OutSet pair
// instead of materializing the Outputs map; Outputs stays nil. Neither
// form allocates per node at the finish line: the map's values are boxed
// in place in a few chunks per kind. The dense one still saves building
// the map and its chunks. Callers decode with Result.DecodedOutputs.
func (s *Sim) DenseOutputs() *Sim { s.denseOut = true; return s }

// SetMaxEvents caps the number of processed events; exceeding it panics
// (runaway protocols are bugs, not conditions to limp through). In
// ModeMulti and on shard engines the cap is checked at window barriers.
func (s *Sim) SetMaxEvents(limit uint64) { s.maxEvents = limit }

// Handler returns node v's handler (tests use this to inspect final state).
func (s *Sim) Handler(v graph.NodeID) Handler { return s.handlers[s.li(v)] }

// Graph returns the simulated topology.
func (s *Sim) Graph() *graph.Graph { return s.g }

// PartialResult returns the costs accrued so far as a Result: Time is the
// current simulation time, and the message, ack and fault counters and the
// per-protocol breakdown are filled in; outputs and the trace are not. In
// ModeSingle the counters are exact at any point. In the parallel modes
// they are the committed prefix — everything up to the last window barrier
// (ModeMulti) or the last committed event (ModeSpec, whose commit walk
// replays the serial engine exactly, making a post-panic snapshot identical
// to the serial one). Calling it while a parallel window or speculative
// round is actually in flight — possible only from another goroutine or
// from inside a handler — panics instead of returning numbers that are
// stale by an unknowable in-flight amount. core.SynchronizeUnknownBound
// bills doubling attempts that abort before Run returns (Theorem 5.4's
// Σ 2^t accounting) from it; serial event order defines an aborted
// attempt's cost, which both the serial engine and the speculative commit
// walk provide.
func (s *Sim) PartialResult() Result {
	if s.inWindow {
		panic("async: PartialResult called while a parallel window is in flight; mid-run snapshots are defined only between barriers (or any time in ModeSingle)")
	}
	l := &s.direct.ledger
	return Result{Time: l.now, Msgs: l.msgs, Acks: l.acks, PerProto: s.perProtoMap(),
		Dropped: l.dropped, Retrans: l.retrans, Undeliverable: l.undeliv}
}

func (s *Sim) perProtoMap() map[Proto]uint64 {
	pp := make(map[Proto]uint64)
	for p, n := range s.direct.perProto {
		if n != 0 {
			pp[Proto(p)] = n
		}
	}
	return pp
}

// Reset rearms the engine for another run on the same graph: counters,
// queues, outboxes, outputs, and the segment arena all return to their
// initial state while keeping every backing array they grew — the wheel
// slots, the contexts' outbox slabs, and arena chunks are reused, so a
// harness sweeping many trials on one topology allocates the engine once.
// mk rebuilds the per-node handlers; adv may differ from the previous run.
func (s *Sim) Reset(adv Adversary, mk func(id graph.NodeID) Handler) {
	s.adv = adv
	s.lookahead = checkedLookahead(adv)
	s.faults = faultsOf(adv)
	s.resetRun()
	// Clone targets are dropped because mk may build different handler
	// types this cycle.
	for i := range s.specClones {
		s.specClones[i] = nil
	}
	s.specMk = mk
	// Drop the previous handlers before building any: they may share one
	// batch (core's stacks), which stays reachable while any of them is,
	// and a collection during the build would otherwise keep the whole
	// previous run alive and pace the heap by both.
	clear(s.handlers)
	for i := range s.handlers {
		s.handlers[i] = s.build(mk, graph.NodeID(i))
	}
}

// resetRun is Reset without the handlers: everything the engine itself
// keeps for a run returns to its initial state, while the handlers (and
// the speculative clone targets the same mk built) keep theirs — Restore
// then replaces each handler's state through its LoadState.
func (s *Sim) resetRun() {
	s.running = false
	s.resumed = false
	s.events.reset()
	for k := range s.shards {
		s.shards[k].reset()
	}
	s.sharded = false
	s.eventSq = 0
	clear(s.busy)
	clear(s.boxes)
	clear(s.txSeq)
	s.out.Reset()
	// Every context's ledger, logs and outbox slab clear: a run that
	// panicked mid-window (the recoverable engine-panic idiom core.tryBound
	// relies on) leaves staged events, counters, speculative ops, and
	// possibly a recorded panic behind.
	s.direct.reset()
	for k := range s.wctx {
		s.wctx[k].reset()
	}
	// Clear speculative state. The round epoch is deliberately NOT reset —
	// it must never repeat, so the per-node epoch arrays (specCloneEp and
	// friends) invalidate themselves without a scrub.
	s.inWindow = false
	s.specWalking = false
	s.specRelease = s.specRelease[:0]
	s.specStats = SpecStats{}
	s.arena.Reset()
	s.shardMode = false
	for i := range s.nodes {
		s.nodes[i].ctxIdx = ctxDirect
	}
}

// Run executes the simulation to quiescence and returns the result.
func (s *Sim) Run() Result {
	if s.running {
		panic("async: Run called twice (use Reset to rearm)")
	}
	if s.g.Sub() {
		panic("async: Run on a Subrange view; shard engines are driven by the internal/shard protocol")
	}
	s.running = true
	mode := s.mode
	s.pool = s.workers
	if mode == ModeAuto {
		mode, s.pool = ModeSingle, execpolicy.AutoWorkers(s.workers)
		if execpolicy.AsyncAuto(s.workers, s.g.Links(), s.lookahead, false) == execpolicy.AsyncWindows {
			mode = ModeMulti
		}
	}
	if mode == ModeSpec && !s.handlersCopyable() {
		// Opting in is per-handler (wire.StateCodec); a stack that cannot
		// be copied gets the conservative executor, not an error — callers
		// can force ModeSpec fleet-wide and let each workload take what it
		// supports. SpecStats records the downgrade.
		s.specStats.FellBack = true
		mode = ModeMulti
	}
	if mode == ModeSingle {
		s.pool = 1
	}
	switch mode {
	case ModeMulti:
		s.runWindows(func(k int, wStart float64) {
			s.wctx[k].drain(&s.shards[k], wStart+s.lookahead)
		}, s.mergeWindow)
	case ModeSpec:
		s.runSpec()
	default:
		s.initHandlers()
		s.direct.drain(&s.events, maxEventTime)
	}
	return s.result()
}

// handlersCopyable reports whether every handler's state can be copied
// through its codec, as speculative execution does. O(n) type assertions;
// called once per forced ModeSpec Run.
func (s *Sim) handlersCopyable() bool {
	for _, h := range s.handlers {
		if _, ok := codecOf(h); !ok {
			return false
		}
	}
	return true
}

// initHandlers runs every handler's Init in ascending node order, through
// the direct context — unless the run continues a restored snapshot, whose
// handlers already ran it.
func (s *Sim) initHandlers() {
	if s.resumed {
		return
	}
	for i := range s.handlers {
		s.handlers[i].Init(&s.nodes[i])
	}
}

// runWindows is the parallel executors' shared driver: repeatedly take the
// earliest queued timestamp wStart, let round(k, wStart) drain worker k's
// shard for the round opened there, and let barrier(wStart) fold the round
// back into the engine. barrier returns how many events the round
// committed, the next round's fan-out predictor. ModeMulti's round is the
// bounded-lag window [wStart, wStart + lookahead) — the adversary's MinDelay
// guarantees no event processed in it can schedule anything inside it, in
// exact floating-point arithmetic too, since fl(t+d) is monotone in t and d
// — and its barrier is mergeWindow; ModeSpec's are in spec.go.
func (s *Sim) runWindows(round func(k int, wStart float64), barrier func(wStart float64) int) {
	w := s.pool
	s.ensureWindowState(w)
	s.sharded = true
	defer func() {
		s.sharded = false
		s.inWindow = false
		for i := range s.nodes {
			s.nodes[i].ctxIdx = ctxDirect
		}
	}()
	// Init runs serially through the direct context (its schedules route to
	// the shards), exactly as in ModeSingle. A resumed run skips Init — its
	// events were restored into the serial queue and are dealt to the owner
	// shards instead, identities (t, seq) intact.
	s.dealRestoredEvents()
	s.initHandlers()
	for i := range s.nodes {
		s.nodes[i].ctxIdx = int32(i%w) + 1
	}
	// Fan out to goroutines only when rounds are actually populated: the
	// previous round's event count is the predictor (round occupancy is
	// unknowable before draining, and total queue size is the wrong proxy —
	// a tiny-lookahead adversary keeps thousands of events queued while
	// every window holds one). A forced ModeMulti under such an adversary
	// therefore stays on the inline staging path — same merge, same
	// results, no per-event goroutine barrier.
	prev := 0
	var wStart float64
	part := func(k int) { round(k, wStart) }
	for {
		var ok bool
		if wStart, ok = s.minShardT(); !ok {
			return
		}
		if wStart < s.direct.now {
			panic(fmt.Sprintf("async: time went backwards: %g < %g", wStart, s.direct.now))
		}
		s.inWindow = true
		if w == 1 || prev < s.minParallel {
			for k := 0; k < w; k++ {
				round(k, wStart)
			}
		} else {
			execpolicy.FanOut(w, s.workerPanics, part)
		}
		prev = barrier(wStart)
		s.inWindow = false
	}
}

// ensureWindowState sizes the shard queues and worker contexts, reusing
// them across Reset cycles when the worker count is unchanged.
func (s *Sim) ensureWindowState(w int) {
	if len(s.shards) == w {
		return
	}
	s.shards = make([]eventQueue, w)
	s.wctx = make([]execCtx, w)
	for k := range s.wctx {
		s.wctx[k].s = s
	}
	s.workerPanics = make([]any, w)
	s.mergeCur = make([]int, w)
}

// dealRestoredEvents moves snapshot-restored events from the serial queue
// into the owner shards of a parallel run. Sequence numbers survived the
// snapshot, so shard pop order — and therefore the continuation — matches
// the serial engine's exactly.
func (s *Sim) dealRestoredEvents() {
	for !s.events.empty() {
		k, ev := s.events.pop()
		s.shards[int(ev.owner())%len(s.shards)].push(&event{t: k.t, seq: k.seq, evCell: *ev})
	}
}

// minShardT returns the earliest timestamp across all shards.
func (s *Sim) minShardT() (float64, bool) {
	best, any := 0.0, false
	for k := range s.shards {
		if t, ok := s.shards[k].minT(); ok && (!any || t < best) {
			best, any = t, true
		}
	}
	return best, any
}

// foldWindow books every worker's share of a window into the engine's
// ledger — counters are sums and clocks maxima, the traces k-way merge by
// (T, Seq) — and checks the event cap, which a worker could only check
// against its own share. Returns how many events the window ran.
func (s *Sim) foldWindow() int {
	before := s.direct.steps
	if s.keepTrace {
		MergeRuns(s.mergeCur, len(s.wctx),
			func(k int) []TraceEntry { return s.wctx[k].trace },
			TraceLess,
			func(_ int, te *TraceEntry) bool { s.direct.trace = append(s.direct.trace, *te); return true })
	}
	for k := range s.wctx {
		s.direct.fold(&s.wctx[k].ledger)
	}
	if s.direct.steps > s.maxEvents {
		panic(fmt.Sprintf("async: exceeded %d events at t=%g (livelock?)", s.maxEvents, s.direct.now))
	}
	return int(s.direct.steps - before)
}

// mergeWindow is the bounded-lag barrier: fold the window, then issue the
// staged schedules in the exact order the serial engine would have — a
// k-way merge by their triggering event's (t, seq). Each worker's buffer is
// already sorted by that key because shards process their events in order,
// and no key appears in two buffers because each event has one owner; seq
// assignment in merge order reproduces the serial schedule-call order.
func (s *Sim) mergeWindow(float64) int {
	ran := s.foldWindow()
	MergeRuns(s.mergeCur, len(s.wctx),
		func(k int) []stagedEv { return s.wctx[k].staged },
		stagedLess,
		func(_ int, se *stagedEv) bool { s.schedule(&se.ev); return true })
	for k := range s.wctx {
		s.wctx[k].staged = s.wctx[k].staged[:0]
	}
	return ran
}

// MergeRuns k-way merges n sorted runs — the workers' per-window buffers
// and speculative logs here, the shard workers' flushed logs and traces in
// internal/shard — calling emit with each element and the index of the run
// it came from, until emit returns false. Each run is already sorted by
// `less` (workers emit in their shard's (t, seq) processing order) and no
// key appears in two runs (one owner per event), so a stable scan-for-
// minimum reproduces the global serial order. cur is caller-owned cursor
// scratch of length ≥ n; on return cur[k] counts the elements of run k that
// were emitted and accepted.
func MergeRuns[T any](cur []int, n int, list func(k int) []T,
	less func(a, b *T) bool, emit func(k int, v *T) bool) {
	for k := 0; k < n; k++ {
		cur[k] = 0
	}
	for {
		best, head := -1, (*T)(nil)
		for k := 0; k < n; k++ {
			l := list(k)
			if cur[k] == len(l) {
				continue
			}
			if h := &l[cur[k]]; best < 0 || less(h, head) {
				best, head = k, h
			}
		}
		if best < 0 || !emit(best, head) {
			return
		}
		cur[best]++
	}
}

func stagedLess(a, b *stagedEv) bool {
	if a.trigT != b.trigT {
		return a.trigT < b.trigT
	}
	return a.trigSeq < b.trigSeq
}

// TraceLess orders trace entries by (T, Seq), the serial delivery order.
func TraceLess(a, b *TraceEntry) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	return a.Seq < b.Seq
}

// result materializes the run's Result at the engine boundary.
func (s *Sim) result() Result {
	l := &s.direct.ledger
	res := Result{
		Time:          l.lastOut,
		QuiesceTime:   l.now,
		Msgs:          l.msgs,
		Acks:          l.acks,
		Dropped:       l.dropped,
		Retrans:       l.retrans,
		Undeliverable: l.undeliv,
		PerProto:      s.perProtoMap(),
	}
	if s.keepTrace {
		res.Trace = append([]TraceEntry(nil), l.trace...)
	}
	switch {
	case s.shardMode:
		// Outputs leave a shard engine only through ShardRawOutputs.
	case s.denseOut:
		res.OutBodies, res.OutSet = s.out.Dense(true)
	default:
		w := 1
		if s.pool > 1 && len(s.handlers) >= s.minParallel {
			w = s.pool
		}
		res.Outputs = s.out.Map(s.nodeBase, w)
	}
	return res
}

// DecodedOutputs materializes the user-facing output map of a dense-mode
// Result (for the default mode it is already in Outputs). Hot loops that
// discard intermediate outputs skip this; boundaries that keep the final
// iteration's outputs call it once.
func (r *Result) DecodedOutputs() map[graph.NodeID]any {
	if r.OutSet == nil {
		return r.Outputs
	}
	return outval.DecodeDense(r.OutBodies, r.OutSet)
}

// execCtx is one execution context: the direct (apply-immediately) context
// of the serial engine, the Init phase, window merges and the commit walk,
// or one worker's private staging state in the parallel and shard-staged
// modes. One code path serves every context: effects book into the
// context's own ledger, and only schedule chooses between applying an event
// and staging it.
type execCtx struct {
	s      *Sim
	direct bool

	// spec marks a worker context inside a speculative round: handler
	// effects are logged as specOps instead of applied, and nothing else in
	// the engine is touched. swallow marks the straddle-repair context: a
	// handler state transition is re-executed for its state change alone,
	// its Send/Output effects discarded (they were already committed or
	// rolled back at the event level). See spec.go.
	spec    bool
	swallow bool

	// curSeq (with ledger.now) identifies the event being processed; the
	// staged schedule calls key on the pair.
	curSeq uint64
	ledger
	staged []stagedEv
	// obs carves the outboxes of the links this context queues on.
	obs outboxSlab

	// Speculative round log (spec contexts): flat op log plus one entry per
	// executed event closing its op range. specCur is the event currently
	// inside its handler callback; if the callback panics, the event closes
	// the log with its partial ops and specPanic holds the panic value.
	specOps   []specOp
	specLog   []specExec
	specCur   event
	specPanic any
	// clone copies committed handlers into their per-round clones.
	clone stateCopy

	// replay (direct context, commit walk only): when replayOn is set,
	// invokeRecv/invokeAck apply this logged op sequence instead of calling
	// the handler — everything else in step runs as in ModeSingle — and then
	// re-raise replayPanic if it is set.
	replay      []specOp
	replayOn    bool
	replayPanic any
}

// ledger is what an execution context books as it runs events: the clock,
// the message, ack, step and fault counters, the output count and clock,
// the per-proto counts and the delivery trace. The direct context's ledger
// is the engine's committed totals — what Stats, Result and the snapshot
// frame report; a worker's holds its share of one window until the barrier
// folds it in.
type ledger struct {
	now, lastOut float64
	msgs, acks   uint64
	steps        uint64
	// Fault-plane accounting: transmissions lost to the schedule, retries
	// scheduled, and messages abandoned with their budget exhausted.
	dropped, retrans, undeliv uint64
	outCount                  int
	perProto                  []uint64 // dense, indexed by Proto
	trace                     []TraceEntry
}

// fold adds o's counters into l and takes the maximum of the clocks, then
// empties o. The trace is the caller's to move: window traces interleave.
func (l *ledger) fold(o *ledger) {
	l.now = max(l.now, o.now)
	l.lastOut = max(l.lastOut, o.lastOut)
	l.msgs += o.msgs
	l.acks += o.acks
	l.steps += o.steps
	l.dropped += o.dropped
	l.retrans += o.retrans
	l.undeliv += o.undeliv
	l.outCount += o.outCount
	for p, n := range o.perProto {
		l.perProto = bumpProtoBy(l.perProto, Proto(p), n)
	}
	o.reset()
}

// reset zeroes the ledger, keeping its slices' capacity.
func (l *ledger) reset() { *l = ledger{perProto: l.perProto[:0], trace: l.trace[:0]} }

// reset clears the context's ledger and logs for another run.
func (c *execCtx) reset() {
	c.ledger.reset()
	c.obs.reset()
	c.curSeq = 0
	c.staged = c.staged[:0]
	c.specOps = c.specOps[:0]
	c.specLog = c.specLog[:0]
	c.specPanic = nil
}

// stagedEv is one deferred schedule call, keyed by the event that issued it.
type stagedEv struct {
	ev      event
	trigT   float64
	trigSeq uint64
}

// drain steps c through every event q holds before end, in (t, seq) order:
// a whole serial run, one worker's share of a window, or a shard engine's
// window.
func (c *execCtx) drain(q *eventQueue, end float64) {
	for k, ev := q.popBefore(end); ev != nil; k, ev = q.popBefore(end) {
		c.step(k, ev)
	}
}

// step executes one popped event, key k and cell ev, against this
// context: the clock guard, the event count and its livelock cap, then the
// event's mechanics and handler. The cap reads the context's own count —
// the engine's total for the direct context, one window's share for a
// worker, whose total the barrier checks.
func (c *execCtx) step(k evKey, ev *evCell) {
	s := c.s
	if k.t < c.now {
		panic(fmt.Sprintf("async: time went backwards: %g < %g", k.t, c.now))
	}
	c.now = k.t
	c.curSeq = k.seq
	c.steps++
	if c.steps > s.maxEvents {
		panic(fmt.Sprintf("async: exceeded %d events at t=%g (livelock?)", s.maxEvents, c.now))
	}
	switch ev.kind {
	case evDeliver:
		if s.keepTrace {
			c.trace = append(c.trace, TraceEntry{T: k.t, Seq: k.seq, From: ev.src, To: ev.dst, Msg: ev.msg()})
		}
		c.invokeRecv(ev)
		// Ack travels back; its arrival frees the link.
		c.acks++
		// The return path. A negative link marks a remote-injected delivery
		// (shard mode): the forward link lives on the sender's shard, so the
		// injector encoded the local back link as its complement instead of
		// relying on ReverseLink (which is -1 across a shard boundary).
		back := ev.link
		if back >= 0 {
			back = s.g.ReverseLink(back)
		} else {
			back = ^back
		}
		d := s.adv.Delay(ev.dst, ev.src, uint64(s.txSeq[back]), Proto(ev.proto))
		s.bumpTx(back)
		s.checkDelay(d)
		ack := event{t: c.now + d, evCell: *ev}
		ack.kind, ack.attempt = evAckArrive, 0
		c.schedule(&ack)
	case evAckArrive:
		// ev.src is the original sender whose link is now free.
		s.busy[ev.link] = false
		c.dispatch(ev.src, ev.dst, ev.link)
		c.invokeAck(ev)
		// The ack ends the message's lifecycle; recycle any segment
		// (receivers copy data out if they keep it). No-op without one.
		s.arena.Release(ev.body.Seg)
	case evRetrans:
		// A backoff timer fired: retry the lost transmission. The link has
		// stayed in flight since the original send, so the attempt re-enters
		// at transmit, not send — no handler runs for this event.
		s.transmit(c, ev.src, ev.dst, ev.link, ev.msg(), ev.attempt)
	}
}

// invokeRecv runs the delivery's handler callback — or, during a
// speculative commit walk, replays the effects the callback logged when it
// already ran on the clone. Either way the surrounding step
// mechanics (trace, counters, ack scheduling, seq assignment) execute the
// serial engine's code on the serial engine's state.
func (c *execCtx) invokeRecv(ev *evCell) {
	if c.replayOn {
		c.applyOps(ev)
		return
	}
	s := c.s
	d := s.li(ev.dst)
	s.handlers[d].Recv(&s.nodes[d], ev.src, ev.msg())
}

// invokeAck is invokeRecv's counterpart for ack-return events.
func (c *execCtx) invokeAck(ev *evCell) {
	if c.replayOn {
		c.applyOps(ev)
		return
	}
	s := c.s
	src := s.li(ev.src)
	s.handlers[src].Ack(&s.nodes[src], ev.dst, ev.msg())
}

// applyOps replays a logged handler-effect sequence through this context.
// The ops re-enter send/setOutput exactly where the handler's own calls
// would have, so counters, outbox scheduling, and adversary consultation
// happen in the identical order. A callback that panicked on the clone
// panics here too, after its partial effects — the serial engine's exact
// state at the point of death.
func (c *execCtx) applyOps(ev *evCell) {
	owner := ev.owner()
	for i := range c.replay {
		op := &c.replay[i]
		switch op.kind {
		case opSend:
			c.send(owner, op.to, op.msg)
		case opOutBody:
			c.setOutputBody(op.to, op.msg.Body)
		}
	}
	if c.replayPanic != nil {
		panic(c.replayPanic)
	}
}

func (c *execCtx) send(from, to graph.NodeID, m Msg) {
	s := c.s
	l := s.g.LinkBetween(from, to)
	if l < 0 {
		panic(fmt.Sprintf("async: node %d sending to non-neighbor %d", from, to))
	}
	if m.Proto < 0 || m.Proto > maxProto {
		panic(fmt.Sprintf("async: node %d sent proto %d, outside the [0, %d] an event holds", from, m.Proto, maxProto))
	}
	if c.spec {
		// Speculative phase: log the intent, touch nothing. The commit walk
		// applies it (or rollback releases its segment).
		c.specOps = append(c.specOps, specOp{kind: opSend, to: to, msg: m})
		return
	}
	if c.swallow {
		// Straddle repair re-runs a handler transition whose sends were
		// already committed by the walk; this duplicate message dies here,
		// and its freshly carved segment goes straight back.
		s.arena.Release(m.Body.Seg)
		return
	}
	c.msgs++
	c.perProto = bumpProtoBy(c.perProto, m.Proto, 1)
	if !s.busy[l] {
		// Uncontended fast path: an idle link's queue is necessarily empty
		// (a queued message implies an in-flight one), so push+pop of this
		// single message collapses to direct injection — a link that never
		// queues behind an in-flight send never takes an outbox.
		s.inject(c, from, to, l, m)
		return
	}
	c.obs.queue(s.boxes, l, m)
}

// inject marks the link in flight and performs the first transmission
// attempt.
func (s *Sim) inject(c *execCtx, from, to graph.NodeID, l graph.LinkID, m Msg) {
	s.busy[l] = true
	s.transmit(c, from, to, l, m, 0)
}

// transmit performs transmission attempt `attempt` on an in-flight link:
// consult the adversary for the hop delay as always, then ask the fault
// schedule — once, with the attempt's transmission sequence and computed
// arrival time — whether this attempt is lost. A lost attempt schedules a
// deterministic-backoff retransmission while budget remains; an exhausted
// budget surfaces as Undeliverable. Each retransmission consumes a fresh
// transmission sequence, so the adversary and the drop hash both see it as
// a new transmission. With no fault schedule this is exactly the old
// single-attempt dispatch.
func (s *Sim) transmit(c *execCtx, from, to graph.NodeID, l graph.LinkID, m Msg, attempt uint8) {
	txs := uint64(s.txSeq[l])
	d := s.adv.Delay(from, to, txs, m.Proto)
	s.bumpTx(l)
	s.checkDelay(d)
	td := c.now + d
	if s.faults == nil || !s.faults.Lost(from, to, txs, td) {
		c.schedule(&event{t: td, evCell: newCell(evDeliver, l, from, to, m, 0)})
		return
	}
	c.dropped++
	if int(attempt) >= s.faults.Budget {
		c.undeliverable(from, to, l, m)
		return
	}
	c.retrans++
	b := s.faults.backoff(attempt, s.lookahead)
	c.schedule(&event{t: c.now + b, evCell: newCell(evRetrans, l, from, to, m, attempt+1)})
}

// undeliverable abandons a message whose retransmit budget is exhausted:
// record the typed trace entry under the triggering event's (t, seq) key,
// release the payload segment (the lifecycle that would have ended at the
// ack ends here), free the link, and dispatch its next queued message. The
// engine always quiesces — protocol-level stalls under faults are surfaced
// by watchdogs (core.StallReport), never as hangs.
func (c *execCtx) undeliverable(from, to graph.NodeID, l graph.LinkID, m Msg) {
	s := c.s
	c.undeliv++
	if s.keepTrace {
		c.trace = append(c.trace, TraceEntry{T: c.now, Seq: c.curSeq, From: from, To: to, Msg: m, Kind: traceUndeliverable})
	}
	s.arena.Release(m.Body.Seg)
	s.busy[l] = false
	c.dispatch(from, to, l)
}

// bumpTx advances a link's transmission sequence, failing loudly before
// the 32-bit counter could wrap (4 billion messages on ONE link exceeds
// any configured event cap).
func (s *Sim) bumpTx(l graph.LinkID) {
	s.txSeq[l]++
	if s.txSeq[l] == math.MaxUint32 {
		panic(fmt.Sprintf("async: transmission sequence overflow on link %d", l))
	}
}

// dispatch injects the next queued message of the (from,to) link, if any.
func (c *execCtx) dispatch(from, to graph.NodeID, l graph.LinkID) {
	if m, ok := c.obs.next(c.s.boxes, l); ok {
		c.s.inject(c, from, to, l, m)
	}
}

// checkDelay enforces both the model's (0,1] delay contract and the
// adversary's own MinDelay declaration — the bounded-lag mode's safety
// rests on the latter, so violating it fails loudly in every mode.
func (s *Sim) checkDelay(d float64) {
	if !(d > 0 && d <= 1) {
		panic(fmt.Sprintf("async: adversary %q returned delay %g outside (0,1]", s.adv.Name(), d))
	}
	if d < s.lookahead {
		panic(fmt.Sprintf("async: adversary %q returned delay %g below its declared MinDelay %g",
			s.adv.Name(), d, s.lookahead))
	}
}

// schedule applies the direct context's schedule calls at once; a worker
// stages its calls keyed by the triggering event, for the barrier merge (or
// the shard coordinator's) to grant seqs in serial order.
func (c *execCtx) schedule(ev *event) {
	if c.direct {
		c.s.schedule(ev)
		return
	}
	c.staged = append(c.staged, stagedEv{ev: *ev, trigT: c.now, trigSeq: c.curSeq})
}

// schedule stamps *ev with the next sequence number and queues a copy.
func (s *Sim) schedule(ev *event) {
	ev.seq = s.eventSq
	s.eventSq++
	if s.specWalking && ev.t < s.specNewMin {
		// Straggler frontier: the commit walk may not commit any already-
		// speculated event past the earliest timestamp it has scheduled.
		s.specNewMin = ev.t
	}
	if s.sharded {
		s.shards[int(ev.owner())%len(s.shards)].push(ev)
	} else {
		s.events.push(ev)
	}
}

// noteFirstOutput updates the time-to-output clock for a node's first
// Output call.
func (c *execCtx) noteFirstOutput() {
	c.outCount++
	c.lastOut = max(c.lastOut, c.now)
}

func (c *execCtx) setOutputBody(id graph.NodeID, b wire.Body) {
	if b.Kind == 0 {
		panic(fmt.Sprintf("async: node %d output a Body with zero Kind", id))
	}
	s := c.s
	if c.spec {
		c.specOps = append(c.specOps, specOp{kind: opOutBody, to: id, msg: Msg{Body: b}})
		s.specTouchOut(id)
		return
	}
	if c.swallow {
		s.specOutSaved[id] = true
		return
	}
	if s.out.SetBody(int(s.li(id)), b) {
		c.noteFirstOutput()
	}
}

// hasOutput answers Node.HasOutput through the node's execution context:
// the committed array in serial/window execution, the per-round overlay
// during a speculative phase, and repair's evolving local view during a
// swallow replay. Each view reproduces what the serial engine's has-bit
// would say at the same point in the event order.
func (c *execCtx) hasOutput(id graph.NodeID) bool {
	s := c.s
	if c.spec {
		if s.specOutEp[id] != s.specRoundEp {
			s.specOutEp[id] = s.specRoundEp
			s.specOutView[id] = s.out.Has(int(id))
			s.specOutSaved[id] = s.specOutView[id]
		}
		return s.specOutView[id]
	}
	if c.swallow {
		if s.specOutEp[id] == s.specRoundEp {
			return s.specOutSaved[id]
		}
		return s.out.Has(int(id))
	}
	return s.out.Has(int(s.li(id)))
}

// bumpProtoBy adds n to the dense per-proto counter, growing the slice to
// cover p on first sight (growth happens a handful of times per run; the
// steady state indexes and adds, no hashing).
func bumpProtoBy(pp []uint64, p Proto, n uint64) []uint64 {
	if p < 0 {
		panic(fmt.Sprintf("async: negative proto %d", p))
	}
	if int(p) >= len(pp) {
		pp = append(pp, make([]uint64, int(p)+1-len(pp))...)
	}
	pp[p] += n
	return pp
}

const (
	evDeliver uint8 = iota + 1
	evAckArrive
	// evRetrans is a fault-plane backoff timer: retry the lost message on
	// its still-in-flight link. Owned by the sender (like evAckArrive), so
	// it is always shard-local and never crosses a coordinator wire.
	evRetrans
)

// event is one scheduled occurrence, its (t, seq) key and its cell, in the
// transient form schedule, push and the staged, speculative and shard logs
// use. A queued event is its key in a wheel slot plus its cell in the
// queue's slab, where the executors read it in place (queue.go).
type event struct {
	t   float64
	seq uint64
	evCell
}

// evCell is an event without its key, 72 bytes: the 32-bit ids, the 1-byte
// kind and retransmission attempt and the 16-bit proto share two words.
type evCell struct {
	link    graph.LinkID // the forward link src→dst
	src     graph.NodeID // sender of the original message
	dst     graph.NodeID // receiver of the original message
	kind    uint8
	attempt uint8  // evRetrans: attempt number of the retry it triggers
	proto   uint16 // Msg.Proto; send refuses one above maxProto
	stage   int    // Msg.Stage; on the queue's free list, 1 + the next free index
	body    wire.Body
}

// maxProto is the largest Proto an event cell holds.
const maxProto = math.MaxUint16

// newCell packs m into a cell; m.Proto must lie in [0, maxProto].
func newCell(kind uint8, l graph.LinkID, src, dst graph.NodeID, m Msg, attempt uint8) evCell {
	return evCell{link: l, src: src, dst: dst, kind: kind, attempt: attempt, proto: uint16(m.Proto), stage: m.Stage, body: m.Body}
}

func (c *evCell) msg() Msg { return Msg{Proto: Proto(c.proto), Stage: c.stage, Body: c.body} }

// owner is the node whose handler the event invokes: deliveries run the
// receiver, ack-returns run the original sender. Owner-sharding makes every
// piece of state an event touches — the handler, the node's outgoing
// outboxes and transmission counters, its output slot — private to one
// worker within a window.
func (c *evCell) owner() graph.NodeID {
	if c.kind == evDeliver {
		return c.dst
	}
	return c.src
}
