package core

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// AlphaSynchronizer is Awerbuch's α synchronizer (Appendix A): every node
// generates every pulse 1..B. A node is safe for pulse p once all its
// pulse-p messages are acknowledged (the simulator's link acks already
// provide this), after which it tells every neighbor SAFE(p); a node
// generates pulse p+1 once it holds SAFE(p) from all neighbors.
//
// Time overhead is O(1) per pulse — optimal — but the safety traffic costs
// Θ(m) messages per pulse, i.e. M(A') = M(A) + Θ(T(A)·m): the blow-up
// experiment E8 measures exactly this term.
type alphaNode struct {
	pulseShell

	safeCnt  []int // pulse -> neighbors that sent SAFE(p)
	selfSafe []bool
	sentSafe []bool
}

const protoAlphaSafe async.Proto = 3

// newAlpha builds the α-synchronized handler for one node.
func newAlpha(algo syncrun.Handler, bound int) *alphaNode {
	a := &alphaNode{
		safeCnt:  make([]int, bound+1),
		selfSafe: make([]bool, bound+1),
		sentSafe: make([]bool, bound+1),
	}
	a.pulseShell = newPulseShell(algo, bound, "alpha", a)
	return a
}

// checkSafe declares this node safe for pulse p once its pulse-p sends are
// all acknowledged, then floods SAFE(p) to neighbors.
func (a *alphaNode) checkSafe(n *async.Node, p int) {
	if a.sentSafe[p] || a.sendAcked[p] > 0 {
		return
	}
	a.sentSafe[p] = true
	a.selfSafe[p] = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: protoAlphaSafe, Stage: p, Body: wire.Body{Kind: kindAlphaSafe, A: int64(p)}})
	}
	a.maybeAdvance(n, p)
}

func (a *alphaNode) maybeAdvance(n *async.Node, p int) {
	if a.pulse != p || p+1 > a.bound {
		return
	}
	if !a.selfSafe[p] || a.safeCnt[p] < n.Degree() {
		return
	}
	a.runPulse(n, p+1)
}

func (a *alphaNode) recvSafety(n *async.Node, _ graph.NodeID, m async.Msg) {
	if m.Body.Kind != kindAlphaSafe {
		panic(fmt.Sprintf("core: alpha node %d got payload kind %d", n.ID(), m.Body.Kind))
	}
	p := int(m.Body.A)
	a.safeCnt[p]++
	a.maybeAdvance(n, p)
}

// SynchronizeAlpha runs the algorithm under the α synchronizer for exactly
// `bound` pulses.
func SynchronizeAlpha(g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) async.Result {
	return runBaseline(g, adv, alphaHandlers(bound, mk))
}

// alphaHandlers returns the handler constructor of an α-synchronized run.
func alphaHandlers(bound int, mk func(id graph.NodeID) syncrun.Handler) func(id graph.NodeID) async.Handler {
	return func(id graph.NodeID) async.Handler { return newAlpha(mk(id), bound) }
}
