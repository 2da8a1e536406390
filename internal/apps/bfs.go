package apps

import (
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// BFSResult is the per-node output of the BFS algorithms.
type BFSResult struct {
	// Dist is the distance to the closest source.
	Dist int
	// Parent is the BFS-tree parent (-1 at sources).
	Parent graph.NodeID
	// Source is the closest source (smallest ID on ties at equal
	// distance along the tie-break below).
	Source graph.NodeID
}

// BFS is the event-driven synchronous (multi-)source BFS of Corollary 1.2:
// sources flood "join" proposals; a node adopts the first proposal
// (smallest sender ID within the pulse) as its parent and distance, then
// proposes to its own neighbors. Each node outputs a BFSResult.
//
// T(A) = max distance to the closest source (the paper's D1), M(A) = 2m.
type BFS struct {
	// Sources lists the BFS sources; one element gives single-source BFS.
	Sources []graph.NodeID

	res BFSResult
	set bool
}

var _ syncrun.Handler = (*BFS)(nil)

// Init implements syncrun.Handler.
func (h *BFS) Init(n syncrun.API) {
	for _, s := range h.Sources {
		if n.ID() != s {
			continue
		}
		h.set = true
		h.res = BFSResult{Dist: 0, Parent: -1, Source: s}
		n.OutputBody(encBFSOut(h.res))
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Body{Kind: kindBFSJoin, A: int64(s)})
		}
		return
	}
}

// Pulse implements syncrun.Handler.
func (h *BFS) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	if h.set || len(recvd) == 0 {
		return
	}
	// Deterministic tie-break: smallest claimed source, then smallest
	// sender.
	best := recvd[0]
	bestSrc := graph.NodeID(best.Body.A)
	for _, in := range recvd[1:] {
		src := graph.NodeID(in.Body.A)
		if src < bestSrc || (src == bestSrc && in.From < best.From) {
			best, bestSrc = in, src
		}
	}
	h.set = true
	h.res = BFSResult{Dist: p, Parent: best.From, Source: bestSrc}
	n.OutputBody(encBFSOut(h.res))
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Body{Kind: kindBFSJoin, A: int64(bestSrc)})
	}
}

// CheckBFSOutputs verifies a full set of BFS outputs against the reference
// distances; it returns the offending node or -1.
func CheckBFSOutputs(g *graph.Graph, sources []graph.NodeID, outputs map[graph.NodeID]any) graph.NodeID {
	dist, _ := g.MultiBFS(sources)
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[graph.NodeID(v)]
		if !ok {
			return graph.NodeID(v)
		}
		res, ok := out.(BFSResult)
		if !ok || res.Dist != dist[v] {
			return graph.NodeID(v)
		}
		if res.Dist > 0 {
			// Parent must be one step closer.
			if dist[res.Parent] != res.Dist-1 || g.EdgeBetween(graph.NodeID(v), res.Parent) < 0 {
				return graph.NodeID(v)
			}
		}
	}
	return -1
}
