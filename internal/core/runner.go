package core

import (
	"fmt"
	"sync"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/reg"
	"repro/internal/syncrun"
)

// Config describes one synchronized run (the Theorem 5.5 setting: the
// pulse bound is known, covers are given or built up front).
type Config struct {
	// Graph is the network.
	Graph *graph.Graph
	// Bound B: the synchronous algorithm must send only at pulses 0..B-1.
	// Exceeding it panics (it is a correctness contract, Appendix B).
	Bound int
	// Adversary controls message delays; nil means SeededRandom{1}.
	Adversary async.Adversary
	// Layered optionally supplies prebuilt covers (they must reach level
	// ℓ(B)+5); nil builds them from the graph.
	Layered *cover.Layered
	// Mode selects the asynchronous engine's execution mode (default
	// ModeAuto). Results are byte-identical across modes; the parallel
	// modes only change wall-clock. Every module of the stack implements
	// async.ModuleState, so ModeSpec runs the synchronizer speculatively
	// like any other cloneable workload.
	Mode async.ExecutionMode
	// Workers caps the engine's parallel worker pool (0 = engine default;
	// negative panics).
	Workers int
}

// coverCache memoizes BuildLayeredFor results. Covers are deterministic in
// (graph, radius) and immutable once built, so repeated trials on the same
// graph — the common shape of every experiment sweep — reuse one build.
// Entries key on the graph pointer plus the cover radius; a small FIFO
// bound keeps long-running sweeps over many graphs from pinning them all.
type coverCacheKey struct {
	g      *graph.Graph
	radius int
}

var coverCache = struct {
	sync.Mutex
	entries map[coverCacheKey]*cover.Layered
	order   []coverCacheKey
}{entries: make(map[coverCacheKey]*cover.Layered)}

const coverCacheCap = 64

// ResetCoverCache drops every memoized layered cover, releasing the graphs
// and covers it pins. Long-lived processes sweeping many graphs can call
// it between sweeps.
func ResetCoverCache() {
	coverCache.Lock()
	coverCache.entries = make(map[coverCacheKey]*cover.Layered)
	coverCache.order = nil
	coverCache.Unlock()
}

// BuildLayeredFor constructs the layered covers the synchronizer needs for
// pulse bound b on g. Building them is the synchronizer's initialization
// (§4.6 / Theorem 4.22 do it asynchronously; this implementation builds
// them centrally and reports their cost separately — see DESIGN.md).
// Results are memoized per (graph, radius) for finalized graphs — their
// topology can no longer change (AddEdge panics) and covers are immutable
// after construction, so the cached value is safe to share across
// concurrent runs (the parallel experiment harness relies on this).
// Unfinalized graphs bypass the cache.
func BuildLayeredFor(g *graph.Graph, b int) *cover.Layered {
	sched := NewSchedule(b)
	radius := 1 << uint(sched.MaxCoverLevel)
	if !g.Final() {
		return cover.BuildLayered(g, radius, nil)
	}
	key := coverCacheKey{g: g, radius: radius}
	coverCache.Lock()
	if l, ok := coverCache.entries[key]; ok {
		coverCache.Unlock()
		return l
	}
	coverCache.Unlock()
	// Build outside the lock: cover construction dominates and must not
	// serialize independent graphs. A concurrent duplicate build of the
	// same key is deterministic, so last-write-wins is harmless.
	l := cover.BuildLayered(g, radius, nil)
	coverCache.Lock()
	if cached, ok := coverCache.entries[key]; ok {
		l = cached
	} else {
		if len(coverCache.order) >= coverCacheCap {
			oldest := coverCache.order[0]
			coverCache.order = coverCache.order[1:]
			delete(coverCache.entries, oldest)
		}
		coverCache.entries[key] = l
		coverCache.order = append(coverCache.order, key)
	}
	coverCache.Unlock()
	return l
}

// Synchronize runs the synchronous algorithm produced by mk under the
// deterministic synchronizer on cfg.Graph and returns the asynchronous
// run's measurements. The outputs are exactly those of the synchronous
// execution (Theorem 5.2).
func Synchronize(cfg Config, mk func(id graph.NodeID) syncrun.Handler) async.Result {
	return newSynchronizedSim(cfg, mk).Run()
}

// NewSynchronizedSim assembles the synchronizer stack without running it,
// returning the engine handle for stepwise execution and the state plane:
// RunSteps / Snapshot / Restore / FinishResult (or plain Run). This is the
// root package's checkpointable synchronized run.
func NewSynchronizedSim(cfg Config, mk func(id graph.NodeID) syncrun.Handler) *async.Sim {
	return newSynchronizedSim(cfg, mk)
}

// newSynchronizedSim assembles the synchronizer stack without running it.
// SynchronizeUnknownBound keeps the sim handle so an attempt that aborts
// mid-run (pulse bound exceeded) can still be billed via Sim.Stats.
func newSynchronizedSim(cfg Config, mk func(id graph.NodeID) syncrun.Handler) *async.Sim {
	if cfg.Graph == nil {
		panic("core: Config.Graph is nil")
	}
	if cfg.Bound < 1 {
		panic(fmt.Sprintf("core: Config.Bound must be >= 1, got %d", cfg.Bound))
	}
	if cfg.Workers < 0 {
		panic(fmt.Sprintf("core: Config.Workers must be >= 0, got %d", cfg.Workers))
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = async.SeededRandom{Seed: 1}
	}
	sched := NewSchedule(cfg.Bound)
	layered := cfg.Layered
	if layered == nil {
		layered = BuildLayeredFor(cfg.Graph, cfg.Bound)
	}
	if layered.MaxLevel() < sched.MaxCoverLevel {
		panic(fmt.Sprintf("core: layered covers reach level %d, need %d",
			layered.MaxLevel(), sched.MaxCoverLevel))
	}
	sim := async.New(cfg.Graph, adv, func(id graph.NodeID) async.Handler {
		return NewNodeHandler(sched, layered, mk(id))
	}).WithMode(cfg.Mode)
	if cfg.Workers > 0 {
		sim.WithWorkers(cfg.Workers)
	}
	return sim
}

// NewNodeHandler wires one node's synchronizer stack: the core engine plus
// one registration module and one barrier module per cover level in use.
// Callers may register additional modules on unused protos of the returned
// Mux before the simulation starts.
func NewNodeHandler(sched *Schedule, layered *cover.Layered, algo syncrun.Handler) *async.Mux {
	c := &nodeCore{
		sched:   sched,
		layered: layered,
		algo:    algo,
		regMods: make([]*reg.Module, sched.MaxCoverLevel+1),
		barMods: make([]*gather.Module, sched.MaxCoverLevel+1),
	}
	mux := async.NewMux()
	mux.Register(ProtoAlgo, c)
	mux.Register(ProtoTree, c)
	stagePulse := func(session int) int { return session }
	stageBarrier := func(session int) int { return session / 2 }
	for lvl := 5; lvl <= sched.MaxCoverLevel; lvl++ {
		cov := layered.Level(lvl)
		rm := reg.New(ProtoRegBase+async.Proto(lvl), cov, c, stagePulse)
		bm := gather.New(ProtoBarrierBase+async.Proto(lvl), cov, c, stageBarrier)
		c.regMods[lvl] = rm
		c.barMods[lvl] = bm
		mux.Register(ProtoRegBase+async.Proto(lvl), rm)
		mux.Register(ProtoBarrierBase+async.Proto(lvl), bm)
	}
	return mux
}
