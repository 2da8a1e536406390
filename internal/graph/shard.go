package graph

import (
	"fmt"
	"sort"
)

// This file is the graph half of sharded multi-process execution: a
// contiguous node partitioner with greedy edge-cut refinement, Subrange
// sub-CSR views holding only one shard's adjacency rows, and the
// boundary-link table a shard uses to route cross-shard sends.
//
// Partitions are contiguous ranges [cuts[k], cuts[k+1]) rather than
// arbitrary node sets: contiguity keeps Owner() a binary search over K+1
// ints (no 10M-entry owner array), keeps Subrange a single CSR row copy,
// and matches the locality the implicit generators already have (grid3d
// neighbors differ by ±1/±X/±XY; ring-of-cliques neighbors are
// clique-local). The greedy refinement slides each cut within a balance
// window to the position with the fewest crossing edges, a METIS-lite
// one-dimensional relaxation that is exact for the cost model "contiguous
// cuts only".

// Partition is a contiguous K-way node partition: shard k owns the global
// nodes [Cuts()[k], Cuts()[k+1]).
type Partition struct {
	cuts []NodeID // len K+1; cuts[0] == 0, cuts[K] == n, strictly increasing
}

// PartitionContiguous partitions g's nodes into k contiguous shards.
// Cuts start at the link-balanced ideal positions (equal out-link mass per
// shard) and each slides within a balance window of ±max(1, n/8k) nodes to
// the position crossed by the fewest edges, ties resolved toward the
// smaller position. Crossing counts come from the CSR alone — implicit
// generators need not materialize an edge table. k is clamped to [1, n].
func PartitionContiguous(g *Graph, k int) Partition {
	if g.sub {
		panic("graph: PartitionContiguous on a Subrange view")
	}
	n := g.N()
	if n == 0 {
		panic("graph: PartitionContiguous on an empty graph")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	cuts := make([]NodeID, k+1)
	cuts[k] = NodeID(n)
	if k == 1 {
		return Partition{cuts: cuts}
	}

	// cum[p] = out-links of nodes < p; cross[p] = edges {u,v}, u < p <= v,
	// i.e. the edges severed by cutting between p-1 and p. An edge {u,v}
	// with u < v crosses exactly the cut positions u+1..v, so a difference
	// array over positions integrates to the crossing counts.
	cum := make([]int64, n+1)
	cross := make([]int32, n+1)
	for v := 0; v < n; v++ {
		cum[v+1] = cum[v] + int64(g.Degree(NodeID(v)))
		for _, nb := range g.Neighbors(NodeID(v)) {
			if nb.Node > NodeID(v) {
				cross[v+1]++
				cross[nb.Node+1]--
			}
		}
	}
	for p := 1; p <= n; p++ {
		cross[p] += cross[p-1]
	}

	total := cum[n]
	slack := n / (8 * k)
	if slack < 1 {
		slack = 1
	}
	for j := 1; j < k; j++ {
		target := total * int64(j) / int64(k)
		ideal := sort.Search(n, func(p int) bool { return cum[p+1] >= target })
		lo, hi := ideal-slack, ideal+slack
		if min := int(cuts[j-1]) + 1; lo < min {
			lo = min
		}
		// Leave at least one node for each shard still to be cut off.
		if max := n - (k - j); hi > max {
			hi = max
		}
		if hi < lo {
			hi = lo
		}
		best := lo
		for p := lo + 1; p <= hi; p++ {
			if cross[p] < cross[best] {
				best = p
			}
		}
		cuts[j] = NodeID(best)
	}
	return Partition{cuts: cuts}
}

// PartitionFromCuts rebuilds a Partition from its cut positions (the form
// a coordinator ships to workers). It validates shape: cuts[0] == 0 and
// strictly increasing.
func PartitionFromCuts(cuts []NodeID) Partition {
	if len(cuts) < 2 || cuts[0] != 0 {
		panic(fmt.Sprintf("graph: malformed partition cuts %v", cuts))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			panic(fmt.Sprintf("graph: non-increasing partition cuts %v", cuts))
		}
	}
	out := make([]NodeID, len(cuts))
	copy(out, cuts)
	return Partition{cuts: out}
}

// K returns the number of shards.
func (p Partition) K() int { return len(p.cuts) - 1 }

// Cuts returns the K+1 cut positions. The returned slice must not be
// mutated.
func (p Partition) Cuts() []NodeID { return p.cuts }

// Range returns the node range [lo, hi) owned by shard k.
func (p Partition) Range(k int) (lo, hi NodeID) { return p.cuts[k], p.cuts[k+1] }

// Owner returns the shard owning node v, by binary search over the cuts.
func (p Partition) Owner(v NodeID) int {
	lo, hi := 0, p.K()-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if p.cuts[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// CrossLinks returns the number of directed links whose endpoints fall in
// different shards — the frame traffic a sharded run will carry per
// full sweep of the link set.
func (p Partition) CrossLinks(g *Graph) int {
	cross := 0
	for v := NodeID(0); int(v) < g.N(); v++ {
		o := p.Owner(v)
		for _, nb := range g.Neighbors(v) {
			if p.Owner(nb.Node) != o {
				cross++
			}
		}
	}
	return cross
}

// Subrange returns a sub-CSR view holding only the adjacency rows of the
// global nodes [lo, hi). NodeIDs stay global (N() is
// unchanged; NodeBase()/NLocal() describe the window) while LinkIDs are
// renumbered local — link 0 is the first out-link of node lo — so engine
// per-link arrays are sized by the shard, not the whole graph.
// ReverseLink returns -1 for boundary links (destination outside the
// window); their return paths live on the destination's shard.
//
// The view copies its rows (O(local links) retained) so the caller can
// drop the whole graph after carving its shard. The edge table is not
// carried over: M() reports 0 and Neighbor.Edge values are retained as
// opaque global ids; workloads that need edge weights must run unsharded.
func (g *Graph) Subrange(lo, hi NodeID) *Graph {
	if g.sub {
		panic("graph: Subrange of a Subrange view")
	}
	if lo < 0 || int(hi) > g.n || lo >= hi {
		panic(fmt.Sprintf("graph: Subrange [%d,%d) out of range [0,%d)", lo, hi, g.n))
	}
	nl := int(hi - lo)
	base := g.off[lo]
	flat := make([]Neighbor, g.off[hi]-base)
	copy(flat, g.flat[base:g.off[hi]])
	off := make([]int32, nl+1)
	for i := 0; i <= nl; i++ {
		off[i] = g.off[int(lo)+i] - base
	}
	rev := make([]LinkID, len(flat))
	for i := range flat {
		if d := flat[i].Node; d >= lo && d < hi {
			rev[i] = g.rev[int32(i)+base] - LinkID(base)
		} else {
			rev[i] = -1
		}
	}
	return &Graph{
		n:        g.n,
		sub:      true,
		nodeBase: lo,
		nLocal:   nl,
		flat:     flat,
		off:      off,
		rev:      rev,
	}
}

// BoundaryLink is one cross-shard out-link of a Subrange view: the local
// link id and the (remote) global destination node.
type BoundaryLink struct {
	Link LinkID
	Dst  NodeID
}

// BoundaryLinks lists the view's cross-shard out-links in ascending local
// link order. Whole graphs have none.
func (g *Graph) BoundaryLinks() []BoundaryLink {
	if !g.sub {
		return nil
	}
	var out []BoundaryLink
	for l, r := range g.rev {
		if r < 0 {
			out = append(out, BoundaryLink{Link: LinkID(l), Dst: g.flat[l].Node})
		}
	}
	return out
}

// Footprint returns the exact retained size in bytes of the graph's
// arrays — closed-form accounting that per-shard footprint reports use
// when in-process workers share one heap and a settled-heap probe would
// measure their neighbors too.
func (g *Graph) Footprint() int64 {
	return int64(len(g.flat))*8 + int64(len(g.off))*4 + int64(len(g.rev))*4 +
		int64(len(g.edgeLink))*4 + int64(len(g.weights))*8
}
