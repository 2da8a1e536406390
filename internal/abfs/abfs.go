// Package abfs assembles the paper's asynchronous BFS algorithms (§4):
//
//   - Thresholded multi-source BFS (Theorems 4.11/4.15): the synchronous
//     τ-thresholded BFS of internal/apps runs under the deterministic
//     synchronizer of internal/core, and the §4.1.2 checking stage — a
//     gather over a 2^⌈log₂τ⌉-cover with process "being a source and
//     becoming τ-safe" — tells every unreached node that its distance
//     exceeds τ, so it outputs ∞.
//
//   - The complete BFS in Õ(D) time and Õ(m) messages (Theorems
//     4.23/4.24): doubling iterations of thresholded BFS, terminated by
//     the Approach-2 frontier convergecast. Each iteration is one
//     asynchronous execution; iteration costs are summed exactly as Lemma
//     2.5's sequential-composition bound adds isolated stage times
//     (DESIGN.md records this composition-at-the-harness substitution;
//     covers are built centrally, as everywhere in this reproduction).
package abfs

import (
	"fmt"
	"math/bits"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Unreachable is the output of nodes whose distance to every source
// exceeds the threshold (the paper's ∞ symbol, Definition 4.2).
type Unreachable struct{}

// KindOutUnreachable is the typed-output encoding of Unreachable (a pure
// tag; see outval for the output-kind namespace).
const KindOutUnreachable wire.Kind = 0x7D01

func init() {
	outval.Register(KindOutUnreachable, func(wire.Body) any { return Unreachable{} })
}

// protoCheck carries the checking-stage gather (distinct from every proto
// the synchronizer stack uses).
const protoCheck async.Proto = 90

// Result of one thresholded asynchronous BFS execution.
type Result struct {
	async.Result
	// Complete reports whether every node was reached (no frontier beyond
	// the threshold at any source).
	Complete bool
}

// checkGlue bridges the synchronized TBFS and the checking-stage gather on
// one node: non-sources mark done immediately; a source marks done when
// its termination echo completes; on NeighborhoodDone an unreached node
// outputs ∞.
type checkGlue struct {
	tb       *apps.TBFS
	gm       *gather.Module
	isSource bool
	node     *async.Node
	srcDone  bool
	frontier bool
}

var _ async.Module = (*checkGlue)(nil)
var _ gather.Callbacks = (*checkGlue)(nil)
var _ async.ModuleState = (*checkGlue)(nil)
var _ async.Rebinder = (*checkGlue)(nil)

// SaveState implements wire.StateCodec. The TBFS handler and the gather
// module serialize themselves via their own codecs in the enclosing Mux;
// the glue's own mutable state is just the source-echo verdict.
func (cg *checkGlue) SaveState(e *wire.Enc) {
	e.Bool(cg.srcDone)
	e.Bool(cg.frontier)
}

// LoadState implements wire.StateCodec.
func (cg *checkGlue) LoadState(d *wire.Dec) {
	cg.srcDone = d.Bool()
	cg.frontier = d.Bool()
}

// CloneModuleInto implements async.ModuleState. The node handle travels
// too: a speculative clone is never Started, and its onSourceDone needs it.
func (cg *checkGlue) CloneModuleInto(dst async.Module) {
	d := dst.(*checkGlue)
	d.srcDone, d.frontier, d.node = cg.srcDone, cg.frontier, cg.node
}

// Rebind implements async.Rebinder: on a restored engine Start does not
// run again, so re-capture the node handle onSourceDone needs.
func (cg *checkGlue) Rebind(n *async.Node) { cg.node = n }

// Start implements async.Module.
func (cg *checkGlue) Start(n *async.Node) {
	cg.node = n
	if !cg.isSource {
		cg.gm.MarkDone(n, 0)
		return
	}
	cg.gm.Begin(n, 0)
	if cg.srcDone { // echo finished before Start ordering (tiny graphs)
		cg.gm.MarkDone(n, 0)
	}
}

// Recv implements async.Module (the glue owns no wire traffic).
func (cg *checkGlue) Recv(n *async.Node, _ graph.NodeID, m async.Msg) {
	panic(fmt.Sprintf("abfs: glue at node %d got unexpected message (proto %d, kind %d)", n.ID(), m.Proto, m.Body.Kind))
}

// Ack implements async.Module.
func (cg *checkGlue) Ack(*async.Node, graph.NodeID, async.Msg) {}

// onSourceDone is called from inside the synchronized algorithm when this
// source's echo completes.
func (cg *checkGlue) onSourceDone(frontier bool) {
	cg.srcDone = true
	cg.frontier = frontier
	if cg.node != nil {
		cg.gm.MarkDone(cg.node, 0)
	}
}

// NeighborhoodDone implements gather.Callbacks: the τ-ball is settled.
func (cg *checkGlue) NeighborhoodDone(n *async.Node, _ int) {
	if !cg.tb.Reached() {
		n.OutputBody(wire.Tag(KindOutUnreachable))
	}
}

// Config parameterizes one thresholded run.
type Config struct {
	Graph     *graph.Graph
	Sources   []graph.NodeID
	Threshold int
	Adversary async.Adversary
	// Layered covers; nil builds them (they must reach the synchronizer's
	// level for bound 2·Threshold+4 and the checking level ⌈log₂τ⌉).
	Layered *cover.Layered
	// Mode selects the asynchronous engine's execution mode (default
	// ModeAuto); results are byte-identical across modes.
	Mode async.ExecutionMode
}

// pulseBound returns the synchronizer bound for a τ-thresholded BFS: joins
// live τ pulses, probes and the echo double back, plus slack.
func pulseBound(tau int) int { return 2*tau + 6 }

// BuildLayeredFor constructs covers sufficient for a τ-thresholded run.
func BuildLayeredFor(g *graph.Graph, tau int) *cover.Layered {
	return core.BuildLayeredFor(g, pulseBound(tau))
}

// checkLevel returns ⌈log₂ τ⌉: the cover level whose clusters contain
// every τ-ball.
func checkLevel(tau int) int {
	if tau < 1 {
		panic(fmt.Sprintf("abfs: threshold must be >= 1, got %d", tau))
	}
	return bits.Len(uint(tau - 1))
}

// Thresholded runs one asynchronous τ-thresholded multi-source BFS.
// Outputs: apps.TBFSResult for reached non-source nodes,
// apps.TBFSSourceDone at sources, Unreachable{} beyond the threshold.
func Thresholded(cfg Config) Result {
	res, _ := thresholdedOn(nil, cfg, false)
	return res
}

// thresholdedOn runs one thresholded iteration, either on a fresh engine
// (sim nil) or by rearming a previous iteration's engine via Sim.Reset —
// the doubling loop of Full reuses one engine's event wheel, outboxes, and
// arena across all its iterations. dense selects the engine's dense-output
// mode (no Outputs map materialization; the caller decodes OutBodies).
func thresholdedOn(sim *async.Sim, cfg Config, dense bool) (Result, *async.Sim) {
	if len(cfg.Sources) == 0 {
		panic("abfs: no sources")
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = async.SeededRandom{Seed: 1}
	}
	bound := pulseBound(cfg.Threshold)
	sched := core.NewSchedule(bound)
	layered := cfg.Layered
	if layered == nil {
		layered = core.BuildLayeredFor(cfg.Graph, bound)
	}
	lvl := checkLevel(cfg.Threshold)
	if lvl > layered.MaxLevel() {
		panic(fmt.Sprintf("abfs: covers reach level %d, checking needs %d", layered.MaxLevel(), lvl))
	}
	checkCov := layered.Level(lvl)

	isSource := make([]bool, cfg.Graph.N())
	for _, s := range cfg.Sources {
		isSource[s] = true
	}
	mk := func(id graph.NodeID) async.Handler {
		tb := &apps.TBFS{Sources: cfg.Sources, Threshold: cfg.Threshold}
		glue := &checkGlue{tb: tb, isSource: isSource[id]}
		glue.gm = gather.New(protoCheck, checkCov, glue, nil)
		tb.OnSourceDone = glue.onSourceDone
		stack := core.NewNodeHandler(sched, layered, tb)
		stack.Register(protoCheck, glue.gm)
		stack.Register(protoCheck+1, glue)
		return stack
	}
	if sim == nil {
		sim = async.New(cfg.Graph, adv, mk).WithMode(cfg.Mode)
		if dense {
			sim.DenseOutputs()
		}
	} else {
		sim.Reset(adv, mk)
	}
	res := sim.Run()
	complete := true
	for _, s := range cfg.Sources {
		// Read the verdict off the engine's committed handler: under
		// ModeSpec mk also builds the per-round clone targets.
		glue := sim.Handler(s).(*async.Mux).Module(protoCheck + 1).(*checkGlue)
		if !glue.srcDone {
			panic(fmt.Sprintf("abfs: source %d never completed its echo", s))
		}
		if glue.frontier {
			complete = false
		}
	}
	return Result{Result: res, Complete: complete}, sim
}

// FullResult aggregates the doubling iterations of the complete BFS.
type FullResult struct {
	// Outputs is the final iteration's per-node result.
	Outputs map[graph.NodeID]any
	// Time and Msgs sum the iterations (sequential composition).
	Time float64
	Msgs uint64
	// Iterations is the number of doubling rounds executed.
	Iterations int
	// FinalThreshold is the τ of the last iteration.
	FinalThreshold int
}

// Full runs the complete asynchronous (multi-source) BFS of Theorems
// 4.23/4.24: thresholds 1, 2, 4, … until the Approach-2 frontier
// convergecast reports no unreached neighbor anywhere.
func Full(g *graph.Graph, sources []graph.NodeID, adv async.Adversary) FullResult {
	return FullMode(g, sources, adv, async.ModeAuto)
}

// FullMode is Full with an explicit engine execution mode. One simulation
// engine serves every doubling iteration (rearmed with Sim.Reset between
// them), and intermediate iterations run with dense outputs — only the
// winning iteration's outputs are decoded into the result map.
func FullMode(g *graph.Graph, sources []graph.NodeID, adv async.Adversary,
	mode async.ExecutionMode) FullResult {
	out := FullResult{}
	var sim *async.Sim
	for tau := 1; ; tau *= 2 {
		var res Result
		res, sim = thresholdedOn(sim, Config{Graph: g, Sources: sources,
			Threshold: tau, Adversary: adv, Mode: mode}, true)
		out.Iterations++
		out.Time += res.Time
		out.Msgs += res.Msgs
		out.FinalThreshold = tau
		if res.Complete {
			out.Outputs = res.DecodedOutputs()
			return out
		}
		if tau > 4*g.N() {
			panic("abfs: doubling ran away — frontier bit broken")
		}
	}
}
