// Package execpolicy centralizes the execution-policy decisions the two
// engines share: worker-count defaults and validation, the Auto-mode
// heuristics that pick between serial and parallel execution, and the one
// worker fan-out both pools run on. Keeping them
// in one place stops the async engine and the lockstep runner from
// drifting apart — both engines' WithWorkers validation, their GOMAXPROCS
// clamps, and their "is parallelism worth the coordination?" thresholds
// are the same code.
//
// The policy layer is deliberately free of engine types: it answers with
// plain choices, and each engine maps them onto its own mode enum.
package execpolicy

import (
	"fmt"
	"runtime"
	"sync"
)

// maxWorkers caps every worker pool: beyond ~16 workers the merge and
// barrier costs outgrow the marginal core, and the deterministic k-way
// merges scan one cursor per worker.
const maxWorkers = 16

// autoMinLookahead is the smallest adversary lookahead for which Auto mode
// engages the conservative bounded-lag executor: one tick of the async
// engine's 256-slot calendar wheel. Below it, safe windows rarely hold
// more than one event and the barrier is pure overhead, so Auto stays
// serial.
const autoMinLookahead = 1.0 / 256

// autoMultiLinks is the graph size (directed links) at which the async
// engine's Auto mode considers a worker pool at all.
const autoMultiLinks = 4096

// autoMultiNodes is the graph size at which the lockstep runner's Auto
// mode switches to its worker pool: below it, per-pulse pool coordination
// dominates the tiny handler steps.
const autoMultiNodes = 2048

// autoHugeLinks is the graph size (directed links) past which Auto mode
// treats the graph as huge: with millions of concurrent link timers even a
// lookahead far below autoMinLookahead packs thousands of events into each
// safe window, so the windowed executor amortizes its barriers and the
// serial heap discipline becomes the bottleneck.
const autoHugeLinks = 1 << 21

// autoHugeEventsPerWindow is the expected-events-per-safe-window level
// (lookahead × links, with per-link delays in (0, 1]) a huge graph must
// reach for Auto to engage the windowed executor below autoMinLookahead.
const autoHugeEventsPerWindow = 4096

// DefaultWorkers is the worker-pool size when the caller does not choose:
// every available CPU, capped at maxWorkers.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// ValidateWorkers rejects non-positive explicit worker counts. The engine
// name prefixes the panic so the failure reads like the engine's own.
func ValidateWorkers(engine string, k int) {
	if k < 1 {
		panic(fmt.Sprintf("%s: worker count %d < 1", engine, k))
	}
}

// AutoWorkers is the worker count Auto-mode decisions reason with and the
// pool an Auto run then uses: the configured pool clamped to GOMAXPROCS.
// An explicitly forced parallel mode keeps its configured (possibly
// oversubscribed) pool — tests rely on forcing 4 workers on 1 CPU — but
// Auto never volunteers more workers than there are CPUs to run them.
func AutoWorkers(configured int) int {
	if p := runtime.GOMAXPROCS(0); configured > p {
		return p
	}
	return configured
}

// AsyncChoice is the async engine's Auto-mode decision.
type AsyncChoice int

const (
	// AsyncSerial: pop one event at a time on the calling goroutine.
	AsyncSerial AsyncChoice = iota
	// AsyncWindows: conservative bounded-lag windows on a worker pool.
	AsyncWindows
	// AsyncSpec: speculative rounds past the safe window (requires every
	// handler to implement wire.StateCodec, which its clones are copied
	// through). AsyncAuto does not return it: on every measured workload
	// speculation ran slower than serial. The choice stays nameable for
	// callers that map choices to modes.
	AsyncSpec
)

// AsyncAuto picks the async engine's execution path: the bounded-lag
// window executor when the adversary's lookahead makes safe windows worth
// a barrier, and serial otherwise.
//
// Huge graphs (autoHugeLinks and up) get an extra windowed gate: a
// lookahead below autoMinLookahead still engages the window executor when
// lookahead × links promises at least autoHugeEventsPerWindow events per
// window — at that scale the per-window population, not the per-link
// lookahead, is what pays for the barrier.
//
// The fourth parameter, whether the handlers are cloneable, is ignored: it
// stays in the signature because the benchmark module still passes it.
func AsyncAuto(workers, links int, lookahead float64, _ bool) AsyncChoice {
	if AutoWorkers(workers) <= 1 || links < autoMultiLinks {
		return AsyncSerial
	}
	if lookahead >= autoMinLookahead {
		return AsyncWindows
	}
	if links >= autoHugeLinks && lookahead*float64(links) >= autoHugeEventsPerWindow {
		return AsyncWindows
	}
	return AsyncSerial
}

// LockstepMulti reports whether the lockstep runner's Auto mode should use
// its worker pool for a graph of n nodes.
func LockstepMulti(workers, nodes int) bool {
	return AutoWorkers(workers) > 1 && nodes >= autoMultiNodes
}

// maxShards caps multi-process sharded runs: each shard is a whole OS
// process with its own graph plane, and past 8 ways the per-window
// coordinator round trip (a k-cursor merge plus 2k socket syscalls)
// outgrows the marginal process on the graphs that fit one machine.
const maxShards = 8

// autoShardLinks is the graph size (directed links) at which Auto-mode
// sharding engages at all: below ~4M links a single in-process engine
// wins outright. On the million-node smoke graph (~5.9M links, just
// past the gate) the whole multi-process protocol costs ~1% at K=2 and
// ~3% at K=4 measured on one core (CHANGES.md, "Sharded multi-process
// execution" — the overhead floor, since timesharing workers
// re-serialize each window), so on real
// multi-core hosts the per-window critical path divides by K against
// low-single-digit protocol cost; the procs clamp below keeps
// single-core hosts at K=1 regardless.
const autoShardLinks = 1 << 22

// autoShardLinksPerShard keeps Auto from over-sharding mid-size graphs:
// every shard Auto volunteers must own at least this many links, so the
// shard count grows with the graph instead of jumping straight to the
// process cap.
const autoShardLinksPerShard = 1 << 21

// AutoShards picks the shard count for a multi-process run when the
// caller does not choose: 1 (no sharding) below autoShardLinks, then the
// largest count that keeps every shard at autoShardLinksPerShard links,
// clamped to the machine's processors and maxShards.
func AutoShards(procs, links int) int {
	if links < autoShardLinks {
		return 1
	}
	k := links / autoShardLinksPerShard
	if k > procs {
		k = procs
	}
	if k > maxShards {
		k = maxShards
	}
	if k < 1 {
		k = 1
	}
	return k
}

// FanOut runs part(k) for k = 0..w-1, inline when w is 1 and on one
// goroutine each otherwise, and re-raises the first worker panic in worker
// order. panics is the caller's scratch, at least w long, so a pool that
// fans out every pulse or window allocates no slice for it; every call
// overwrites its first w entries. Callers build part once per run.
func FanOut(w int, panics []any, part func(k int)) {
	if w == 1 {
		part(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := range w {
		go func() {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			part(k)
		}()
	}
	wg.Wait()
	for _, p := range panics[:w] {
		if p != nil {
			panic(p)
		}
	}
}
