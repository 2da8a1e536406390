package cover

import (
	"fmt"
	"sort"

	"repro/internal/decomp"
	"repro/internal/graph"
)

// NewExplicit assembles a Cover from hand-built clusters. It is used by
// tests and by the baseline synchronizers (β uses a single BFS-tree
// cluster; γ uses a partition). Home(v) is the first cluster listing v as
// a member; callers are responsible for the covering property if they rely
// on it.
func NewExplicit(n, d int, clusters []*Cluster) *Cover {
	cov := &Cover{D: d, Clusters: clusters}
	cov.reindex(n)
	return cov
}

// BFSTreeCluster builds a single cluster spanning all of g: the BFS tree
// rooted at root. Every node is a member.
func BFSTreeCluster(g *graph.Graph, root graph.NodeID) *Cluster {
	tree := decomp.NewTree(g.N(), root)
	dist := g.BFS(root)
	// Parent = smallest-ID neighbor one level closer.
	order := make([]graph.NodeID, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if dist[v] < 0 {
			panic(fmt.Sprintf("cover: BFSTreeCluster on graph disconnected at %d", v))
		}
		order = append(order, graph.NodeID(v))
	}
	sort.Slice(order, func(i, j int) bool {
		if dist[order[i]] != dist[order[j]] {
			return dist[order[i]] < dist[order[j]]
		}
		return order[i] < order[j]
	})
	members := make([]graph.NodeID, 0, g.N())
	for _, v := range order {
		members = append(members, v)
		if v == root {
			continue
		}
		for _, nb := range g.Neighbors(v) {
			if dist[nb.Node] == dist[v]-1 {
				tree.Attach(v, nb.Node)
				break
			}
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return &Cluster{ID: 0, Root: root, Members: members, Tree: tree.Finalize()}
}
