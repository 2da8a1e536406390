package core

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// GammaSynchronizer is Awerbuch's γ (Appendix A): a low-diameter partition
// runs β inside each cluster and α between adjacent clusters over one
// designated edge per cluster pair. Per pulse p, each cluster (1)
// convergecasts member safety to its root, (2) broadcasts CLUSTER-SAFE and
// exchanges it over designated inter-cluster edges, (3) convergecasts
// "every member heard all its designated peers", and (4) broadcasts
// ADVANCE(p+1).
//
// Cluster trees are the weak-diameter Steiner trees of the decomposition,
// so a node may relay traffic for clusters it is not a member of; all tree
// messages therefore carry the cluster index.
type gammaNode struct {
	pulseShell
	part *gammaPartition

	safe []bool // own pulse-p sends all acked
	ph   map[gKey]*gammaPhase
}

type gKey struct {
	cluster int
	pulse   int
}

// gammaPhase is per-(cluster,pulse) convergecast state at one tree node.
type gammaPhase struct {
	p1Count int
	p1Sent  bool
	cSafe   bool
	extSafe int
	p2Count int
	p2Sent  bool
}

// gammaPartition is the γ clustering: a vertex partition into weak-diameter
// clusters with Steiner trees, plus one designated edge per adjacent
// cluster pair. All per-node state is dense and node-indexed.
type gammaPartition struct {
	// cov's clusters partition the nodes: Home(v) is v's cluster, and v's
	// refs are the cluster trees it serves.
	cov *cover.Cover
	// designated[v] lists peers v exchanges CLUSTER-SAFE with.
	designated [][]graph.NodeID
}

// newGammaPartition builds the clustering (γ's initialization).
func newGammaPartition(g *graph.Graph) *gammaPartition {
	p := &gammaPartition{cov: cover.Build(g, 0), designated: make([][]graph.NodeID, g.N())}
	seen := make(map[[2]cover.ClusterID]bool)
	for ei := 0; ei < g.M(); ei++ {
		e := g.Edge(graph.EdgeID(ei))
		a, b := p.cov.Home(e.U), p.cov.Home(e.V)
		if a == b {
			continue
		}
		key := [2]cover.ClusterID{min(a, b), max(a, b)}
		if seen[key] {
			continue
		}
		seen[key] = true
		p.designated[e.U] = append(p.designated[e.U], e.V)
		p.designated[e.V] = append(p.designated[e.V], e.U)
	}
	return p
}

// DesignatedEdgeCount returns the number of designated inter-cluster edges.
func (p *gammaPartition) DesignatedEdgeCount() int {
	total := 0
	for _, peers := range p.designated {
		total += len(peers)
	}
	return total / 2
}

// ClusterCount returns the number of clusters.
func (p *gammaPartition) ClusterCount() int { return len(p.cov.Clusters) }

const protoGammaTree async.Proto = 5

// encGamma encodes one γ tree/edge message (A = cluster, B = pulse).
func encGamma(k wire.Kind, cluster, pulse int) wire.Body {
	return wire.Body{Kind: k, A: int64(cluster), B: int64(pulse)}
}

// newGamma builds the γ-synchronized handler for one node.
func newGamma(algo syncrun.Handler, bound int, part *gammaPartition) *gammaNode {
	gm := &gammaNode{
		part: part,
		safe: make([]bool, bound+1),
		ph:   make(map[gKey]*gammaPhase),
	}
	gm.pulseShell = newPulseShell(algo, bound, "gamma", gm)
	return gm
}

func (gm *gammaNode) phase(c, p int) *gammaPhase {
	k := gKey{cluster: c, pulse: p}
	st := gm.ph[k]
	if st == nil {
		st = &gammaPhase{}
		gm.ph[k] = st
	}
	return st
}

// ref returns this node's ref on cluster c's tree.
func (gm *gammaNode) ref(n *async.Node, c int) cover.Ref {
	return gm.part.cov.Ref(n.ID(), cover.ClusterID(c))
}

func (gm *gammaNode) checkSafe(n *async.Node, p int) {
	if gm.safe[p] || gm.sendAcked[p] > 0 || gm.pulse < p {
		return
	}
	gm.safe[p] = true
	// Kick the convergecast in every tree this node serves: members gate
	// on their own safety, pure relays (Steiner nonterminals) just needed
	// a trigger to report their (empty) subtrees for pulse p.
	for _, r := range gm.part.cov.Refs(n.ID()) {
		gm.maybeP1(n, int(r.ID), p)
	}
}

// maybeP1 advances the member-safety convergecast at this tree node.
func (gm *gammaNode) maybeP1(n *async.Node, c, p int) {
	st := gm.phase(c, p)
	if st.p1Sent {
		return
	}
	r := gm.ref(n, c)
	if r.Member && !gm.safe[p] {
		return
	}
	if st.p1Count < len(gm.part.cov.Children(r)) {
		return
	}
	st.p1Sent = true
	if r.Parent >= 0 {
		n.Send(r.Parent, async.Msg{Proto: protoGammaTree, Stage: p, Body: encGamma(kindGammaP1Up, c, p)})
		return
	}
	gm.onClusterSafe(n, c, p)
}

// onClusterSafe handles the CLUSTER-SAFE broadcast at a tree node.
func (gm *gammaNode) onClusterSafe(n *async.Node, c, p int) {
	st := gm.phase(c, p)
	st.cSafe = true
	r := gm.ref(n, c)
	for _, ch := range gm.part.cov.Children(r) {
		n.Send(ch, async.Msg{Proto: protoGammaTree, Stage: p, Body: encGamma(kindGammaClusterSafe, c, p)})
	}
	if r.Member {
		for _, peer := range gm.part.designated[n.ID()] {
			n.Send(peer, async.Msg{Proto: protoGammaTree, Stage: p, Body: encGamma(kindGammaCSafe, 0, p)})
		}
	}
	gm.maybeP2(n, c, p)
}

// maybeP2 advances the all-neighbors-safe convergecast.
func (gm *gammaNode) maybeP2(n *async.Node, c, p int) {
	st := gm.phase(c, p)
	if st.p2Sent || !st.cSafe {
		return
	}
	r := gm.ref(n, c)
	if r.Member && st.extSafe < len(gm.part.designated[n.ID()]) {
		return
	}
	if st.p2Count < len(gm.part.cov.Children(r)) {
		return
	}
	st.p2Sent = true
	if r.Parent >= 0 {
		n.Send(r.Parent, async.Msg{Proto: protoGammaTree, Stage: p, Body: encGamma(kindGammaP2Up, c, p)})
		return
	}
	gm.broadcastAdvance(n, c, p+1)
}

func (gm *gammaNode) broadcastAdvance(n *async.Node, c, next int) {
	if next > gm.bound {
		return
	}
	r := gm.ref(n, c)
	for _, ch := range gm.part.cov.Children(r) {
		n.Send(ch, async.Msg{Proto: protoGammaTree, Stage: next, Body: encGamma(kindGammaAdvance, c, next)})
	}
	if r.Member {
		gm.runPulse(n, next)
	}
}

func (gm *gammaNode) recvSafety(n *async.Node, _ graph.NodeID, m async.Msg) {
	cluster, pulse := int(m.Body.A), int(m.Body.B)
	switch m.Body.Kind {
	case kindGammaP1Up:
		gm.phase(cluster, pulse).p1Count++
		gm.maybeP1(n, cluster, pulse)
	case kindGammaClusterSafe:
		gm.onClusterSafe(n, cluster, pulse)
	case kindGammaCSafe:
		c := int(gm.part.cov.Home(n.ID()))
		gm.phase(c, pulse).extSafe++
		gm.maybeP2(n, c, pulse)
	case kindGammaP2Up:
		gm.phase(cluster, pulse).p2Count++
		gm.maybeP2(n, cluster, pulse)
	case kindGammaAdvance:
		gm.broadcastAdvance(n, cluster, pulse)
	default:
		panic(fmt.Sprintf("core: gamma node %d got payload kind %d", n.ID(), m.Body.Kind))
	}
}

// SynchronizeGamma runs the algorithm under γ for exactly `bound` pulses.
func SynchronizeGamma(g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) async.Result {
	return runBaseline(g, adv, gammaHandlers(g, bound, mk))
}

// gammaHandlers returns the handler constructor of a γ-synchronized run on g.
func gammaHandlers(g *graph.Graph, bound int, mk func(id graph.NodeID) syncrun.Handler) func(id graph.NodeID) async.Handler {
	part := newGammaPartition(g)
	return func(id graph.NodeID) async.Handler { return newGamma(mk(id), bound, part) }
}
