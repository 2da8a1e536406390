// Package graph provides the network substrate used throughout the
// reproduction: an undirected graph type with adjacency lists, weighted
// edges, deterministic generators for the topology families exercised in
// the experiments, exact reference algorithms (BFS, multi-source BFS,
// diameter, MST) used as ground truth by the tests, and a union-find.
//
// A Graph is immutable: a generator or FromSpec builds it once, in CSR
// form. All adjacency entries live in one contiguous slice, and every
// ordered pair of adjacent nodes gets a dense LinkID — the entry's index in
// that slice. Simulation engines index per-directed-link state ([]outbox,
// sequence counters, CONGEST stamps) by LinkID instead of hashing (u,v)
// pairs.
//
// All ids are 32-bit: a graph holds at most maxNodes nodes and maxEdges
// edges, so per-link and per-node engine state stays compact at the
// ten-million-node scale. Construction checks the limits explicitly.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node. Nodes are numbered 0..n-1; the paper's unique
// O(log n)-bit identifiers are the NodeIDs themselves.
type NodeID int32

// EdgeID indexes the edge table (see Edge/Weight accessors).
type EdgeID int32

// LinkID is a dense identifier for one directed link (an ordered pair of
// adjacent nodes). Links are numbered 0..2m-1 in CSR order: node 0's
// out-links first (ascending destination), then node 1's, and so on.
type LinkID int32

// maxNodes is the largest supported node count (NodeIDs are int32).
const maxNodes = math.MaxInt32

// maxEdges is the largest supported edge count: 2m directed links must fit
// in the int32 LinkID space.
const maxEdges = math.MaxInt32 / 2

// Edge is an undirected edge {U, V} with an optional weight (used by MST
// workloads; weight 0 elsewhere). U < V always holds after normalization.
type Edge struct {
	U, V   NodeID
	Weight int64
}

// Neighbor is one adjacency entry: the node on the other side of Edge.
// Entry i of v's row is the directed link LinkOffset(v)+i.
type Neighbor struct {
	Node NodeID
	Edge EdgeID
}

// Graph is an immutable undirected graph, built by a generator or FromSpec.
//
// Storage is struct-of-arrays: adjacency lives in one flat CSR slice (8
// bytes per directed link) addressed by int32 offsets, beside a 4-byte
// reverse-link column. The edge table holds each edge's link out of its
// smaller endpoint and a weight column that stays nil while all are zero.
type Graph struct {
	n int

	// Sub-view window (Subrange): the CSR arrays cover only the nodes
	// [nodeBase, nodeBase+nLocal) and their out-links, with local LinkIDs.
	// Whole graphs have nodeBase == 0 and nLocal == n; the sub flag
	// distinguishes a genuine sub-view from a whole graph (whose nLocal
	// field is simply never set).
	sub      bool
	nodeBase NodeID
	nLocal   int

	// Edge table: edge e's link out of its smaller endpoint, and weights.
	edgeLink []LinkID
	weights  []int64

	// CSR arrays. Node v's adjacency row is
	// flat[off[v-nodeBase]:off[v-nodeBase+1]], so the LinkID of adjacency
	// entry i of node v is off[v-nodeBase]+i.
	flat []Neighbor
	off  []int32
	rev  []LinkID // LinkID -> the opposite-direction link
}

// N returns the number of nodes. For a Subrange view this is still the
// node count of the underlying whole graph: NodeIDs stay global.
func (g *Graph) N() int { return g.n }

// NLocal returns the number of nodes whose adjacency rows this graph
// holds: N() for a whole graph, hi-lo for a Subrange view.
func (g *Graph) NLocal() int {
	if g.sub {
		return g.nLocal
	}
	return g.n
}

// NodeBase returns the first node id covered by this graph's CSR arrays
// (0 for whole graphs). A Subrange view holds rows for the global nodes
// [NodeBase(), NodeBase()+NLocal()).
func (g *Graph) NodeBase() NodeID { return g.nodeBase }

// Sub reports whether this graph is a Subrange view of a larger graph.
func (g *Graph) Sub() bool { return g.sub }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edgeLink) }

// Links returns the number of directed links (2·M).
func (g *Graph) Links() int { return len(g.flat) }

// Edge returns edge e.
func (g *Graph) Edge(e EdgeID) Edge {
	return Edge{U: g.EdgeU(e), V: g.EdgeV(e), Weight: g.Weight(e)}
}

// EdgeU returns the smaller endpoint of edge e.
func (g *Graph) EdgeU(e EdgeID) NodeID { return g.flat[g.rev[g.edgeLink[e]]].Node }

// EdgeV returns the larger endpoint of edge e.
func (g *Graph) EdgeV(e EdgeID) NodeID { return g.flat[g.edgeLink[e]].Node }

// Weight returns the weight of edge e (0 when the graph is unweighted).
func (g *Graph) Weight(e EdgeID) int64 {
	if g.weights == nil {
		return 0
	}
	return g.weights[e]
}

// Weighted reports whether any edge carries a nonzero weight.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Neighbors returns the adjacency list of v in ascending node order; entry
// i is the directed link LinkOffset(v)+i. The returned slice must not be
// mutated.
func (g *Graph) Neighbors(v NodeID) []Neighbor {
	v -= g.nodeBase
	return g.flat[g.off[v]:g.off[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	v -= g.nodeBase
	return int(g.off[v+1] - g.off[v])
}

// Other returns the endpoint of edge e that is not v.
func (g *Graph) Other(e EdgeID, v NodeID) NodeID {
	u, w := g.EdgeU(e), g.EdgeV(e)
	if u == v {
		return w
	}
	if w == v {
		return u
	}
	panic(fmt.Sprintf("graph: node %d not on edge %d", v, e))
}

// NeighborIndex returns the position of v in u's adjacency list, or -1 if
// {u,v} is not an edge. O(log degree).
func (g *Graph) NeighborIndex(u, v NodeID) int {
	nbrs := g.Neighbors(u)
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid].Node < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo].Node == v {
		return lo
	}
	return -1
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return g.NeighborIndex(u, v) >= 0
}

// EdgeBetween returns the edge id joining u and v, or -1.
func (g *Graph) EdgeBetween(u, v NodeID) EdgeID {
	i := g.NeighborIndex(u, v)
	if i < 0 {
		return -1
	}
	return g.Neighbors(u)[i].Edge
}

// LinkBetween returns the dense id of the directed link u→v, or -1 if
// {u,v} is not an edge. O(log degree); hot paths that already hold an
// entry's row position i should use LinkOffset(u)+i instead.
func (g *Graph) LinkBetween(u, v NodeID) LinkID {
	i := g.NeighborIndex(u, v)
	if i < 0 {
		return -1
	}
	return LinkID(int(g.off[u-g.nodeBase]) + i)
}

// LinkOffset returns the first LinkID out of v; v's out-links are the
// contiguous range [LinkOffset(v), LinkOffset(v)+Degree(v)).
func (g *Graph) LinkOffset(v NodeID) LinkID { return LinkID(g.off[v-g.nodeBase]) }

// LinkSrc returns the source node of directed link l: the unique v with
// off[v] <= l < off[v+1], found by binary search (the graph does not
// retain a 2m-entry source column; engines carry src/dst in their events
// and only cold paths resolve a bare LinkID).
func (g *Graph) LinkSrc(l LinkID) NodeID {
	lo, hi := 0, g.NLocal()-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if g.off[mid] <= int32(l) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return NodeID(lo) + g.nodeBase
}

// LinkDst returns the destination node of directed link l.
func (g *Graph) LinkDst(l LinkID) NodeID { return g.flat[l].Node }

// ReverseLink returns the link of the opposite direction of l (the ack /
// return path).
func (g *Graph) ReverseLink(l LinkID) LinkID { return g.rev[l] }

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}
