package graph

import "sort"

// KruskalMST returns the edge ids of a minimum spanning tree computed
// centrally. Ties break by edge id, so with distinct weights the result is
// the unique MST; tests use this as ground truth for the distributed MST.
// Panics on disconnected graphs.
func (g *Graph) KruskalMST() []EdgeID {
	ids := make([]EdgeID, g.M())
	for i := range ids {
		ids[i] = EdgeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		wa, wb := g.Weight(ids[a]), g.Weight(ids[b])
		if wa != wb {
			return wa < wb
		}
		return ids[a] < ids[b]
	})
	uf := newUnionFind(g.n)
	out := make([]EdgeID, 0, g.n-1)
	for _, id := range ids {
		if uf.Union(int(g.EdgeU(id)), int(g.EdgeV(id))) {
			out = append(out, id)
		}
	}
	if g.n > 0 && len(out) != g.n-1 {
		panic("graph: KruskalMST on disconnected graph")
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// MSTWeight returns the total weight of the MST.
func (g *Graph) MSTWeight() int64 {
	var total int64
	for _, id := range g.KruskalMST() {
		total += g.Weight(id)
	}
	return total
}

// IsSpanningTree reports whether the given edge set forms a spanning tree
// of g: exactly n-1 edges, acyclic, connected.
func (g *Graph) IsSpanningTree(edges []EdgeID) bool {
	if len(edges) != g.n-1 {
		return false
	}
	uf := newUnionFind(g.n)
	for _, id := range edges {
		if !uf.Union(int(g.EdgeU(id)), int(g.EdgeV(id))) {
			return false
		}
	}
	return uf.Count() == 1
}
