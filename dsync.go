// Package dsync is the public API of this reproduction of "A Near-Optimal
// Deterministic Distributed Synchronizer" (Ghaffari & Trygub, PODC 2023).
//
// It exposes:
//
//   - graph construction (re-exported from the graph substrate),
//   - the lockstep synchronous runner for event-driven algorithms,
//   - the paper's deterministic synchronizer plus Awerbuch's α/β/γ,
//   - the asynchronous BFS family of §4,
//   - ready-made deterministic asynchronous leader election and MST
//     (Corollaries 1.2–1.4),
//   - and the state plane: stepwise synchronized runs that snapshot,
//     restore and replay (NewSynchronizedRun).
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package dsync

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/abfs"
	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/slab"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// Re-exported substrate types.
type (
	// Body is the typed wire payload every message carries: a Kind tag,
	// fixed integer words (A–D), and an optional arena-backed segment.
	// Plain value end to end — no boxing on the hot path (package wire).
	Body = wire.Body
	// Kind tags a Body's message type within its algorithm's namespace.
	Kind = wire.Kind
	// Graph is an undirected network.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// EdgeID indexes the edge table of a Graph.
	EdgeID = graph.EdgeID
	// Adversary chooses asynchronous message delays.
	Adversary = async.Adversary
	// AsyncResult summarizes an asynchronous run.
	AsyncResult = async.Result
	// SyncResult summarizes a lockstep synchronous run.
	SyncResult = syncrun.Result
	// ExecutionMode selects how the lockstep runner steps each pulse
	// (results are byte-identical across modes).
	ExecutionMode = syncrun.ExecutionMode
	// AsyncExecutionMode selects how the asynchronous engine consumes its
	// event queue: serially, or in bounded-lag parallel time windows whose
	// width is the adversary's declared MinDelay lookahead. Results are
	// byte-identical across modes.
	AsyncExecutionMode = async.ExecutionMode
	// Algorithm is an event-driven synchronous node program.
	Algorithm = syncrun.Handler
	// API is the node-side surface an Algorithm sees.
	API = syncrun.API
	// Incoming is one received message.
	Incoming = syncrun.Incoming
	// Layered is a layered sparse cover family.
	Layered = cover.Layered
	// BFSResult is the per-node BFS output.
	BFSResult = apps.BFSResult
	// MSTResult is the per-node MST output: the final fragment and the
	// node's tree parent (-1 at the leader). The MST is the parent edges.
	MSTResult = apps.MSTResult
	// TBFSResult is what every node AsyncBFS reaches outputs (sources
	// output their echo verdict instead).
	TBFSResult = apps.TBFSResult
)

// Graph construction (deterministic; random families take a seed).
// GraphFromSpec reaches every generator by a textual spec ("grid:6x8",
// "grid3d:100x100x100", "er:n=40,m=120,seed=1", "pa:…", "ring:…"); the
// implicit families emit sorted CSR directly with exact preallocation and
// return an error instead of allocating when a spec would overflow the
// 32-bit id space.
var (
	Grid              = graph.Grid
	RandomConnected   = graph.RandomConnected
	WithRandomWeights = graph.WithRandomWeights
	GraphFromSpec     = graph.FromSpec
)

// Tag returns a words-free Body of the given kind (pure signal messages).
func Tag(k Kind) Body { return wire.Tag(k) }

// Delay adversaries for the asynchronous model (τ = 1 normalization).
func FixedDelays(d float64) Adversary    { return async.Fixed{D: d} }
func RandomDelays(seed uint64) Adversary { return async.SeededRandom{Seed: seed} }
func StandardAdversaries(n int, seed uint64) []Adversary {
	return async.StandardAdversaries(n, seed)
}

// Fault plane: seeded, pure-function crash/link/drop schedules wrapped
// around any delay adversary. Fault decisions are byte-identical across
// every execution mode and shard count.
type FaultSchedule = async.FaultSchedule

// ParseFaultSpec parses a fault-schedule spec such as
// "crash:p=0.01,drop:p=0.05,budget=3,seed=7"; "" and "none" yield nil
// (fault-free).
func ParseFaultSpec(spec string) (*FaultSchedule, error) { return async.ParseFaultSpec(spec) }

// WithFaults wraps adv in the fault schedule (returns adv unchanged when
// fs is nil or inert).
func WithFaults(adv Adversary, fs *FaultSchedule) Adversary { return async.WithFaults(adv, fs) }

// Lockstep execution modes. ModeAuto picks the worker pool for large
// graphs; ModeSingle and ModeMulti force one path. All three produce
// byte-identical results — the choice is purely wall-clock.
const (
	ModeAuto   = syncrun.ModeAuto
	ModeSingle = syncrun.ModeSingle
	ModeMulti  = syncrun.ModeMulti
)

// Asynchronous engine execution modes (byte-identical results, wall-clock
// only). AsyncModeAuto engages the conservative bounded-lag windows when
// the adversary's MinDelay lookahead and the graph are both large enough to
// amortize the window barriers, and runs serially otherwise.
const (
	AsyncModeAuto   = async.ModeAuto
	AsyncModeSingle = async.ModeSingle
	AsyncModeMulti  = async.ModeMulti
)

// ParseModes maps an execution-mode name (auto|single|multi) to the
// matching mode of both engines, the form the command-line -mode flags
// take.
func ParseModes(s string) (ExecutionMode, AsyncExecutionMode, error) {
	switch s {
	case "auto":
		return ModeAuto, AsyncModeAuto, nil
	case "single":
		return ModeSingle, AsyncModeSingle, nil
	case "multi":
		return ModeMulti, AsyncModeMulti, nil
	}
	return 0, 0, fmt.Errorf("unknown mode %q (want auto|single|multi)", s)
}

// ParseSources parses a comma-separated list of node ids for a graph of n
// nodes, and checks it as AsyncBFS does.
func ParseSources(s string, n int) ([]NodeID, error) {
	var out []NodeID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad source %q (need 0..%d)", part, n-1)
		}
		out = append(out, NodeID(v))
	}
	return out, checkSources(out, n)
}

// checkSources refuses an empty source list, an id outside [0, n) and a
// repeated id: a repeated source would start the BFS twice at one node and
// run a different execution.
func checkSources(sources []NodeID, n int) error {
	if len(sources) == 0 {
		return errors.New("no source")
	}
	for i, v := range sources {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("source %d out of range (need 0..%d)", v, n-1)
		}
		if slices.Contains(sources[:i], v) {
			return fmt.Errorf("source %d is listed twice", v)
		}
	}
	return nil
}

// RunSync executes an event-driven synchronous algorithm in lockstep rounds
// and measures T(A) and M(A). On large graphs the engine may step
// different nodes' handlers concurrently (ModeAuto); handlers own their
// node's state and must not share mutable state across nodes — use
// RunSyncMode with ModeSingle for algorithms that need serial stepping.
func RunSync(g *Graph, mk func(NodeID) Algorithm) SyncResult {
	return syncrun.New(g, mk).Run()
}

// RunSyncMode is RunSync with an explicit execution mode (Single forces
// the sequential stepper, Multi the deterministic worker pool).
func RunSyncMode(g *Graph, mode ExecutionMode, mk func(NodeID) Algorithm) SyncResult {
	return syncrun.New(g, mk).WithMode(mode).Run()
}

// Synchronize runs the algorithm under the paper's deterministic
// synchronizer (Theorem 1.1 / 5.5): the asynchronous execution produces
// exactly the synchronous outputs. bound must exceed the last pulse at
// which the algorithm sends.
func Synchronize(g *Graph, bound int, adv Adversary, mk func(NodeID) Algorithm) AsyncResult {
	return core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
}

// SynchronizeMode is Synchronize with an explicit asynchronous-engine
// execution mode (AsyncModeSingle forces the serial event loop,
// AsyncModeMulti the bounded-lag parallel windows).
func SynchronizeMode(g *Graph, bound int, adv Adversary, mode AsyncExecutionMode,
	mk func(NodeID) Algorithm) AsyncResult {
	return core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv, Mode: mode}, mk)
}

// SynchronizeWithCovers is Synchronize with prebuilt layered covers
// (amortize cover construction across runs; see BuildCovers).
func SynchronizeWithCovers(g *Graph, bound int, adv Adversary, l *Layered,
	mk func(NodeID) Algorithm) AsyncResult {
	return core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv, Layered: l}, mk)
}

// BuildCovers returns the cover levels the synchronizer's pulses register
// on for the given bound, each built once per (graph, level) and read in
// place by every run on the graph — treat it as immutable. Level(j) panics
// for the lower levels, which no synchronized run reads.
func BuildCovers(g *Graph, bound int) *Layered { return core.BuildLayeredFor(g, bound) }

// ResetCoverCache releases every cover level cached per (graph, level), for
// long-lived processes that sweep many graphs.
func ResetCoverCache() { core.ResetCoverCache() }

// SynchronizeUnknownBound is the Theorem 5.4 setting — no bound on T(A) is
// known: doubling attempts until one completes. Returns the result and the
// discovered pulse bound.
func SynchronizeUnknownBound(g *Graph, adv Adversary, mk func(NodeID) Algorithm) (AsyncResult, int) {
	return core.SynchronizeUnknownBound(g, adv, mk)
}

// Baseline synchronizers (Appendix A).
var (
	// SynchronizeAlpha: O(1) time overhead, Θ(m) messages per pulse.
	SynchronizeAlpha = core.SynchronizeAlpha
	// SynchronizeBeta: Θ(D) time per pulse, Θ(n) messages per pulse.
	SynchronizeBeta = core.SynchronizeBeta
	// SynchronizeGamma: the cluster-based tradeoff between α and β.
	SynchronizeGamma = core.SynchronizeGamma
)

// NewBFS returns the synchronous (multi-)source BFS algorithm of
// Corollary 1.2 for use with RunSync or any synchronizer.
func NewBFS(sources []NodeID) func(NodeID) Algorithm {
	var sl slab.Objects[apps.BFS]
	return func(NodeID) Algorithm { return sl.Alloc(apps.BFS{Sources: sources}) }
}

// NewFlood returns the flooding broadcast (each node outputs its hop
// distance from the source).
func NewFlood(source NodeID) func(NodeID) Algorithm {
	var sl slab.Objects[apps.Flood]
	return func(NodeID) Algorithm { return sl.Alloc(apps.Flood{Source: source}) }
}

// NewEcho returns the flood-and-echo algorithm (the root outputs n).
func NewEcho(root NodeID) func(NodeID) Algorithm {
	var sl slab.Objects[apps.Echo]
	return func(NodeID) Algorithm { return sl.Alloc(apps.Echo{Root: root}) }
}

// NewLeaderElection returns the §6 epoch algorithm plus the pulse bound it
// needs. The elected leader is the minimum node ID; every node outputs it.
func NewLeaderElection(g *Graph) (func(NodeID) Algorithm, int) {
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	layered := core.CoverLevels(g, 0, bits.Len(uint(d-1))) // up to radius ≥ d
	spans := apps.LeaderSpansAll(g, layered)
	var sl slab.Objects[apps.Leader]
	mk := func(NodeID) Algorithm { return sl.Alloc(apps.Leader{Covers: layered, SpansAll: spans}) }
	res := syncrun.New(g, mk).Run()
	return mk, res.Rounds + 2
}

// NewMST returns the Borůvka-style MST algorithm plus its pulse bound.
// Edge weights must be distinct (WithRandomWeights).
func NewMST(g *Graph) (func(NodeID) Algorithm, int) {
	tree := cover.BFSTree(g, 0)
	weights := make([]int64, g.M())
	for i := range weights {
		weights[i] = g.Weight(graph.EdgeID(i))
	}
	var sl slab.Objects[apps.MST]
	mk := func(NodeID) Algorithm { return sl.Alloc(apps.MST{Barrier: tree, Weights: weights}) }
	res := syncrun.New(g, mk).Run()
	return mk, res.Rounds + 2
}

// AsyncLeaderElection elects a leader asynchronously (Corollary 1.3):
// deterministic, Õ(D) time, Õ(m) messages. Every node outputs the leader.
func AsyncLeaderElection(g *Graph, adv Adversary) AsyncResult {
	mk, bound := NewLeaderElection(g)
	return Synchronize(g, bound, adv, mk)
}

// AsyncMST computes the minimum spanning tree asynchronously
// (Corollary 1.4). Every node outputs an MSTResult; the tree's edges are
// the nodes' parent edges.
func AsyncMST(g *Graph, adv Adversary) AsyncResult {
	mk, bound := NewMST(g)
	return Synchronize(g, bound, adv, mk)
}

// AsyncBFS runs the complete asynchronous (multi-)source BFS of Theorems
// 4.23/4.24: Õ(D1) time, Õ(m) messages, no prior knowledge of D. It
// refuses an empty, out-of-range or repeated source.
func AsyncBFS(g *Graph, sources []NodeID, adv Adversary) (abfs.FullResult, error) {
	return AsyncBFSMode(g, sources, adv, AsyncModeAuto)
}

// AsyncBFSMode is AsyncBFS with an explicit engine execution mode.
func AsyncBFSMode(g *Graph, sources []NodeID, adv Adversary, mode AsyncExecutionMode) (abfs.FullResult, error) {
	if err := checkSources(sources, g.N()); err != nil {
		return abfs.FullResult{}, err
	}
	return abfs.FullMode(g, sources, adv, mode), nil
}

// State plane: a SynchronizedRun steps the synchronizer stack event by
// event and checkpoints it. Snapshot seals the run's complete state into a
// pointer-free byte frame at an event boundary; Restore loads a frame into
// a handle built over the same graph and algorithm — discarding whatever
// run state that handle held — and Run then finishes byte-identically to
// the uninterrupted run, in every execution mode. The handle keeps its
// node stacks across Restore: each stack's LoadState replaces its state
// (wire.StateCodec), so rewinding one handle again and again builds its
// stacks once. Restoring one frame repeatedly replays it deterministically. Every shipped algorithm and the
// synchronizer stack serialize their state for it.
type SynchronizedRun = async.Sim

// NewSynchronizedRun assembles the paper's synchronizer stack over the
// synchronous algorithm without running it: RunSteps(k) advances k engine
// events, Snapshot() checkpoints between events, Restore(frame) rewinds
// to a checkpoint, and Run() finishes in any execution mode.
func NewSynchronizedRun(g *Graph, bound int, adv Adversary, mk func(NodeID) Algorithm) *SynchronizedRun {
	return core.NewSynchronizedSim(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
}
