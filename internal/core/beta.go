package core

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// BetaSynchronizer is Awerbuch's β (Appendix A): a global BFS tree carries,
// per pulse, a convergecast of "my subtree is safe for p" followed by a
// broadcast of "advance to p+1". Time overhead Θ(D) per pulse; message
// overhead Θ(n) per pulse.
type betaNode struct {
	pulseShell
	tree *cover.Cover // a one-cluster cover: the BFS tree is cluster 0

	selfSafe   []bool
	childSafe  []int // pulse -> children subtrees reported safe
	reportSent []bool
}

const protoBetaTree async.Proto = 4

// newBeta builds the β-synchronized handler for one node; tree is the
// shared BFS-tree cover (its construction is β's initialization, which
// Appendix A ignores in the overhead accounting).
func newBeta(algo syncrun.Handler, bound int, tree *cover.Cover) *betaNode {
	b := &betaNode{
		tree:       tree,
		selfSafe:   make([]bool, bound+1),
		childSafe:  make([]int, bound+1),
		reportSent: make([]bool, bound+1),
	}
	b.pulseShell = newPulseShell(algo, bound, "beta", b)
	return b
}

func (b *betaNode) checkSafe(n *async.Node, p int) {
	if b.sendAcked[p] > 0 || b.pulse < p {
		return
	}
	b.selfSafe[p] = true
	b.maybeReport(n, p)
}

// maybeReport sends the subtree-safe report up the BFS tree once this node
// is safe and all tree children reported.
func (b *betaNode) maybeReport(n *async.Node, p int) {
	if b.reportSent[p] || !b.selfSafe[p] {
		return
	}
	r := b.tree.Ref(n.ID(), 0)
	if b.childSafe[p] < len(b.tree.Children(r)) {
		return
	}
	b.reportSent[p] = true
	if r.Parent >= 0 {
		n.Send(r.Parent, async.Msg{Proto: protoBetaTree, Stage: p, Body: wire.Body{Kind: kindBetaSafeUp, A: int64(p)}})
		return
	}
	// Root: the whole network is safe for p; advance everyone.
	b.advance(n, p+1)
}

func (b *betaNode) advance(n *async.Node, next int) {
	if next > b.bound {
		return
	}
	for _, ch := range b.tree.Children(b.tree.Ref(n.ID(), 0)) {
		n.Send(ch, async.Msg{Proto: protoBetaTree, Stage: next, Body: wire.Body{Kind: kindBetaAdvance, A: int64(next)}})
	}
	b.runPulse(n, next)
}

func (b *betaNode) recvSafety(n *async.Node, _ graph.NodeID, m async.Msg) {
	switch m.Body.Kind {
	case kindBetaSafeUp:
		p := int(m.Body.A)
		b.childSafe[p]++
		b.maybeReport(n, p)
	case kindBetaAdvance:
		b.advance(n, int(m.Body.A))
	default:
		panic(fmt.Sprintf("core: beta node %d got payload kind %d", n.ID(), m.Body.Kind))
	}
}

// SynchronizeBeta runs the algorithm under β for exactly `bound` pulses.
func SynchronizeBeta(g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) async.Result {
	return runBaseline(g, adv, betaHandlers(g, bound, mk))
}

// betaHandlers returns the handler constructor of a β-synchronized run on g.
func betaHandlers(g *graph.Graph, bound int, mk func(id graph.NodeID) syncrun.Handler) func(id graph.NodeID) async.Handler {
	tree := cover.BFSTree(g, 0)
	return func(id graph.NodeID) async.Handler { return newBeta(mk(id), bound, tree) }
}
