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
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// unreachable is the output of nodes whose distance to every source
// exceeds the threshold (the paper's ∞ symbol, Definition 4.2).
type unreachable struct{}

// kindOutUnreachable is the typed-output encoding of unreachable (a pure
// tag; see outval for the output-kind namespace).
const kindOutUnreachable wire.Kind = 0x7D01

func init() {
	outval.Register(kindOutUnreachable, func(wire.Body) unreachable { return unreachable{} })
}

// protoCheck carries the checking-stage gather (distinct from every proto
// the synchronizer stack uses).
const protoCheck async.Proto = 90

// result of one thresholded asynchronous BFS execution.
type result struct {
	async.Result
	// Complete reports whether every node was reached (no frontier beyond
	// the threshold at any source).
	Complete bool
	// Stalled reports that some source never completed its echo: a fault
	// left a message undeliverable or crashed a node the echo needed.
	Stalled bool
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
var _ wire.StateCodec = (*checkGlue)(nil)
var _ async.Rebinder = (*checkGlue)(nil)

// checkBatch is the checking stage of one batch of synchronizer stacks:
// every node's glue and gather module, the modules copies of one
// gather.New value so that they share its slabs, and their gather
// callbacks, routed to the glue of the node each call carries.
type checkBatch struct {
	base  graph.NodeID
	glues []checkGlue
	gms   []gather.Module
}

var _ gather.Callbacks = (*checkBatch)(nil)

// NeighborhoodDone implements gather.Callbacks.
func (b *checkBatch) NeighborhoodDone(n *async.Node, session int) {
	b.glues[n.ID()-b.base].NeighborhoodDone(n, session)
}

// SaveState implements wire.StateCodec. The TBFS handler and the gather
// module serialize themselves via their own codecs in the enclosing Mux;
// the glue's own mutable state is just the source-echo verdict.
func (cg *checkGlue) SaveState(e *wire.Enc) { cg.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (cg *checkGlue) LoadState(d *wire.Dec) { cg.state(d.Coder()) }

func (cg *checkGlue) state(c *wire.Coder) {
	c.Bool(&cg.srcDone)
	c.Bool(&cg.frontier)
}

// Rebind implements async.Rebinder: the engine hands the glue its node when
// it builds the stack, so onSourceDone can mark done even before Start.
func (cg *checkGlue) Rebind(n *async.Node) { cg.node = n }

// Start implements async.Module. A source's done mark comes from
// onSourceDone, which may already have run (an isolated source's echo
// completes inside the algorithm's own Start).
func (cg *checkGlue) Start(n *async.Node) {
	if !cg.isSource {
		cg.gm.MarkDone(n, 0)
		return
	}
	cg.gm.Begin(n, 0)
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
	cg.gm.MarkDone(cg.node, 0)
}

// NeighborhoodDone is the gather callback for this node: the τ-ball is
// settled.
func (cg *checkGlue) NeighborhoodDone(n *async.Node, _ int) {
	if !cg.tb.Reached() {
		n.OutputBody(wire.Tag(kindOutUnreachable))
	}
}

// config parameterizes one thresholded run.
type config struct {
	Graph     *graph.Graph
	Sources   []graph.NodeID
	Threshold int
	Adversary async.Adversary
	// Mode selects the asynchronous engine's execution mode (default
	// ModeAuto); results are byte-identical across modes.
	Mode async.ExecutionMode
}

// pulseBound returns the synchronizer bound for a τ-thresholded BFS: joins
// live τ pulses, probes and the echo double back, plus slack.
func pulseBound(tau int) int { return 2*tau + 6 }

// checkLevel returns ⌈log₂ τ⌉: the cover level whose clusters contain
// every τ-ball.
func checkLevel(tau int) int {
	if tau < 1 {
		panic(fmt.Sprintf("abfs: threshold must be >= 1, got %d", tau))
	}
	return bits.Len(uint(tau - 1))
}

// thresholded runs one asynchronous τ-thresholded multi-source BFS.
// Outputs: apps.TBFSResult for reached non-source nodes,
// apps.TBFSSourceDone at sources, unreachable{} beyond the threshold.
func thresholded(cfg config) result {
	res, _ := thresholdedOn(nil, cfg, false)
	return res
}

// thresholdedOn runs one thresholded iteration, either on a fresh engine
// (sim nil) or by rearming a previous iteration's engine via Sim.Reset —
// the doubling loop of Full reuses one engine's event wheel, outboxes, and
// arena across all its iterations, and builds one batch of node stacks
// per iteration. dense selects the engine's dense-output
// mode (no Outputs map materialization; the caller decodes OutBodies).
func thresholdedOn(sim *async.Sim, cfg config, dense bool) (result, *async.Sim) {
	adv := cfg.Adversary
	if adv == nil {
		adv = async.SeededRandom{Seed: 1}
	}
	mk := IterationStacks(cfg.Graph, cfg.Sources, cfg.Threshold)
	if sim == nil {
		sim = async.New(cfg.Graph, adv, mk).WithMode(cfg.Mode)
		if dense {
			sim.DenseOutputs()
		}
	} else {
		sim.Reset(adv, mk)
	}
	res := sim.Run()
	out := result{Result: res, Complete: true}
	for _, s := range cfg.Sources {
		// Read the verdict off the engine's committed handler: under
		// ModeSpec mk also builds the per-round clone targets.
		glue := sim.Handler(s).(*async.Mux).Module(protoCheck + 1).(*checkGlue)
		switch {
		case !glue.srcDone:
			out.Complete, out.Stalled = false, true
		case glue.frontier:
			out.Complete = false
		}
	}
	return out, sim
}

// IterationStacks returns the handler constructor of one τ-thresholded
// iteration from sources on g: every node's synchronizer stack around a
// TBFS, with the checking stage's gather module and glue beside it, all
// built batch by batch like any synchronized run's stacks (core.Extra).
// The synchronizer's levels for bound 2τ+6 and the checking level ⌈log₂τ⌉
// come from the level cache.
func IterationStacks(g *graph.Graph, sources []graph.NodeID, tau int) func(graph.NodeID) async.Handler {
	if len(sources) == 0 {
		panic("abfs: no sources")
	}
	bound := pulseBound(tau)
	layered := core.BuildLayeredFor(g, bound)
	checkCov := core.CoverLevel(g, checkLevel(tau))
	isSource := make([]bool, g.N())
	for _, s := range sources {
		isSource[s] = true
	}
	base := g.NodeBase()
	check := func(nodes int) func(graph.NodeID, syncrun.Handler, *async.Mux) {
		b := &checkBatch{base: base, glues: make([]checkGlue, nodes), gms: make([]gather.Module, nodes)}
		gm := gather.New(protoCheck, checkCov, b, nil)
		return func(id graph.NodeID, algo syncrun.Handler, mux *async.Mux) {
			i := id - base
			b.gms[i] = *gm
			tb := algo.(*apps.TBFS)
			b.glues[i] = checkGlue{tb: tb, gm: &b.gms[i], isSource: isSource[id]}
			tb.OnSourceDone = b.glues[i].onSourceDone
			mux.Register(protoCheck, &b.gms[i])
			mux.Register(protoCheck+1, &b.glues[i])
		}
	}
	return core.StackMaker(g, core.NewSchedule(bound), layered, func(graph.NodeID) syncrun.Handler {
		return &apps.TBFS{Sources: sources, Threshold: tau}
	}, check)
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
	// Stalled reports that the last iteration ended with a source whose
	// echo never completed, so Outputs are that iteration's partial ones.
	Stalled bool
}

// FullMode runs the complete asynchronous (multi-source) BFS of Theorems
// 4.23/4.24 in an engine execution mode: thresholds 1, 2, 4, … until the
// Approach-2 frontier convergecast reports no unreached neighbor anywhere.
// The sources must be distinct ids of g (dsync.AsyncBFS checks). One
// simulation engine serves every doubling iteration (rearmed with
// Sim.Reset between them), and intermediate iterations run with dense
// outputs — only the winning iteration's outputs are decoded into the
// result map.
func FullMode(g *graph.Graph, sources []graph.NodeID, adv async.Adversary,
	mode async.ExecutionMode) FullResult {
	out := FullResult{}
	var sim *async.Sim
	for tau := 1; ; tau *= 2 {
		var res result
		res, sim = thresholdedOn(sim, config{Graph: g, Sources: sources,
			Threshold: tau, Adversary: adv, Mode: mode}, true)
		out.Iterations++
		out.Time += res.Time
		out.Msgs += res.Msgs
		out.FinalThreshold = tau
		// A stall ends the doubling: a larger τ cannot resurrect an
		// undeliverable message (core's watchdog reasons the same way).
		if res.Complete || res.Stalled {
			out.Outputs = res.DecodedOutputs()
			out.Stalled = res.Stalled
			return out
		}
		if tau > 4*g.N() {
			panic("abfs: doubling ran away — frontier bit broken")
		}
	}
}
