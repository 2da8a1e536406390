package core

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/pulse"
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
	// wire.StateCodec, so ModeSpec copies its clones through the codec and
	// runs the synchronizer speculatively, provided the algorithm has a
	// codec too.
	Mode async.ExecutionMode
	// Workers caps the engine's parallel worker pool (0 = engine default;
	// negative panics).
	Workers int
}

// levelCache holds one cover level per (graph, level), built once on its
// first request (concurrent requests wait for that build) and immutable
// after, so every run on a graph — sweep trials, abfs iterations, leader
// election and the synchronizer — reads the same levels in place.
var levelCache = struct {
	sync.Mutex
	graphs map[*graph.Graph][]*cachedLevel // by level
	order  []*graph.Graph                  // first seen first
}{graphs: make(map[*graph.Graph][]*cachedLevel)}

type cachedLevel struct {
	once sync.Once
	cov  *cover.Cover
}

// levelCacheGraphs bounds the cache by graph: the levels of the graphs seen
// last are kept, so a sweep over at most this many graphs rebuilds none.
const levelCacheGraphs = 64

// ResetCoverCache drops every cached cover level, releasing the graphs and
// covers it pins. Long-lived processes sweeping many graphs can call it
// between sweeps.
func ResetCoverCache() {
	levelCache.Lock()
	levelCache.graphs = make(map[*graph.Graph][]*cachedLevel)
	levelCache.order = nil
	levelCache.Unlock()
}

// CoverLevel returns the sparse 2^j-cover of g from the level cache,
// building it on first request.
func CoverLevel(g *graph.Graph, j int) *cover.Cover {
	levelCache.Lock()
	levels, ok := levelCache.graphs[g]
	if !ok {
		if len(levelCache.order) == levelCacheGraphs {
			delete(levelCache.graphs, levelCache.order[0])
			levelCache.order = levelCache.order[1:]
		}
		levelCache.order = append(levelCache.order, g)
	}
	for len(levels) <= j {
		levels = append(levels, new(cachedLevel))
	}
	levelCache.graphs[g] = levels
	l := levels[j]
	levelCache.Unlock()
	// Build outside the lock: cover construction dominates and must not
	// serialize independent levels or graphs.
	l.once.Do(func() { l.cov = cover.Build(g, 1<<uint(j)) })
	return l.cov
}

// CoverLevels returns levels lo..hi of g's layered cover from the level
// cache; the Layered's levels below lo stay nil (see cover.Layered.Level).
func CoverLevels(g *graph.Graph, lo, hi int) *cover.Layered {
	l := &cover.Layered{Levels: make([]*cover.Cover, hi+1)}
	for j := lo; j <= hi; j++ {
		l.Levels[j] = CoverLevel(g, j)
	}
	return l
}

// BuildLayeredFor returns the cover levels the synchronizer needs for pulse
// bound b on g, from the level cache: firstCoverLevel up to the highest
// ℓ(p)+5 over p in [1, b], the only ones a pulse registers on. Building them
// is the synchronizer's initialization (§4.6 / Theorem 4.22 do it
// asynchronously; this implementation builds them centrally and reports
// their cost separately — see DESIGN.md).
func BuildLayeredFor(g *graph.Graph, b int) *cover.Layered {
	if b < 1 {
		panic(fmt.Sprintf("core: pulse bound must be >= 1, got %d", b))
	}
	// ℓ(p) is p's count of trailing zero bits, highest at the largest power
	// of two up to b.
	return CoverLevels(g, firstCoverLevel, pulse.CoverLevel(1<<(bits.Len(uint(b))-1)))
}

// Synchronize runs the synchronous algorithm produced by mk under the
// deterministic synchronizer on cfg.Graph and returns the asynchronous
// run's measurements. The outputs are exactly those of the synchronous
// execution (Theorem 5.2).
func Synchronize(cfg Config, mk func(id graph.NodeID) syncrun.Handler) async.Result {
	return NewSynchronizedSim(cfg, mk).Run()
}

// NewSynchronizedSim assembles the synchronizer stack without running it,
// returning the engine handle for stepwise execution and the state plane:
// RunSteps / Snapshot / Restore / FinishResult (or plain Run). This is the
// root package's checkpointable synchronized run; SynchronizeUnknownBound
// keeps the handle so an attempt that aborts mid-run (pulse bound
// exceeded) can still be billed via Sim.PartialResult.
func NewSynchronizedSim(cfg Config, mk func(id graph.NodeID) syncrun.Handler) *async.Sim {
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
	sim := async.New(cfg.Graph, adv, StackMaker(cfg.Graph, sched, layered, mk, nil)).WithMode(cfg.Mode)
	if cfg.Workers > 0 {
		sim.WithWorkers(cfg.Workers)
	}
	return sim
}

// NewNodeHandler wires one node's synchronizer stack: the core engine plus
// one registration module and one barrier module per cover level in use.
// It is the one-node batch of the constructor a synchronized run builds
// all its stacks with (stacks.go). Its Muxes share one dispatch table per
// sched, so callers may register additional modules on unused protos of
// the returned Mux before the handler constructor returns it only if every
// call registers the same ones, in the same order (async.Mux).
func NewNodeHandler(sched *Schedule, layered *cover.Layered, algo syncrun.Handler) *async.Mux {
	// A throwaway stack writes the table once; later copies only read it.
	sched.nodeMuxOnce.Do(func() { newStacks(sched, layered, 1, 0, sched.nodeMux).stack(0, nil) })
	return newStacks(sched, layered, 1, 0, sched.nodeMux).stack(0, algo)
}
