// Package cover builds sparse d-covers (Definition 2.1) and layered covers
// from the k-separated network decomposition, following Theorem 4.21:
// construct a (2d+1)-separated weak-diameter decomposition, then expand
// every cluster to its d-neighborhood. Same-color clusters are more than
// 2d+1 apart, so the d-expansions stay disjoint per color, every node lands
// in O(log n) clusters (at most one per color), and for every node v the
// expansion of v's own decomposition cluster contains v's entire d-ball.
package cover

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/decomp"
	"repro/internal/graph"
)

// ClusterID identifies a cluster within one Cover. 32-bit, matching the
// graph plane's compact ids: the per-node member, ref and home columns are
// the dominant cover footprint at scale.
type ClusterID int32

// Cluster is one cover cluster: member nodes plus a rooted cluster tree
// (weak: the tree may pass through non-member Steiner nodes). Stacks read
// the tree through the cover's refs (Cover.Ref, Refs, Children).
type Cluster struct {
	ID      ClusterID
	Members []graph.NodeID // ascending
	// Seeds are the decomposition-cluster members the d-expansion grew
	// from (the alive ones, under a masked build) — ascending. repair's
	// dirty certificate tests fault distance against this set.
	Seeds []graph.NodeID
	decomp.Steiner

	// base is the decomposition cluster this cover cluster expands;
	// repair walks the decomposition in build order and matches reusable
	// clusters through it.
	base *decomp.Cluster
}

// Has reports whether v is a member (terminal) of the cluster.
func (c *Cluster) Has(v graph.NodeID) bool {
	i := sort.Search(len(c.Members), func(i int) bool { return c.Members[i] >= v })
	return i < len(c.Members) && c.Members[i] == v
}

// Cover is a sparse d-cover: a set of clusters such that every node is in
// O(log n) clusters and every node's d-ball is fully inside at least one
// cluster. It is immutable once built, and every stack on the level reads
// its per-node columns in place.
type Cover struct {
	// D is the covered radius: any two nodes at distance <= D share a
	// cluster.
	D        int
	Clusters []*Cluster
	// Per-node columns, CSR by node, ascending by cluster id within a node:
	// v's member clusters are memberIDs[memberOff[v]:memberOff[v+1]], and
	// its refs, one per cluster tree it is on (Steiner nonterminals relay
	// but are not members), are refs[refOff[v]:refOff[v+1]]. kids holds
	// every ref's tree children.
	memberOff []int32
	memberIDs []ClusterID
	refOff    []int32
	refs      []Ref
	kids      []graph.NodeID
	// home[v] is a cluster guaranteed to contain Ball(v, D).
	home []ClusterID

	// Retained for repair: the fault-independent base decomposition, the
	// alive mask this cover was built under (nil = no faults), and the
	// graph.
	g     *graph.Graph
	dec   *decomp.Decomposition
	alive []bool
}

// Ref is a node's place on one cluster tree of its cover: what a message on
// that tree needs at the node, resolved once when the cover is built.
type Ref struct {
	ID         ClusterID
	Parent     graph.NodeID // -1 at the cluster root
	kid0, kid1 int32        // the node's tree children are the cover's kids[kid0:kid1]
	Member     bool         // the node is a member (terminal) of the cluster
}

// MemberOf returns the clusters containing v, ascending by id. Do not
// mutate.
func (c *Cover) MemberOf(v graph.NodeID) []ClusterID {
	return c.memberIDs[c.memberOff[v]:c.memberOff[v+1]]
}

// Refs returns v's refs, one per cluster tree v is on, ascending by
// cluster id. Do not mutate.
func (c *Cover) Refs(v graph.NodeID) []Ref { return c.refs[c.refOff[v]:c.refOff[v+1]] }

// Ref returns v's ref on the tree of cluster id. It panics when v is not
// on that tree.
func (c *Cover) Ref(v graph.NodeID, id ClusterID) Ref {
	refs := c.Refs(v)
	i, ok := slices.BinarySearchFunc(refs, id, func(r Ref, id ClusterID) int { return cmp.Compare(r.ID, id) })
	if !ok {
		panic(fmt.Sprintf("cover: node %d is not on cluster %d's tree", v, id))
	}
	return refs[i]
}

// Children returns the tree children of the node r belongs to, ascending.
// Do not mutate.
func (c *Cover) Children(r Ref) []graph.NodeID { return c.kids[r.kid0:r.kid1] }

// Home returns a cluster whose member set contains every node within
// distance D of v (the strengthened covering property of Definition 2.1).
func (c *Cover) Home(v graph.NodeID) ClusterID { return c.home[v] }

// Build constructs a sparse d-cover of g by Theorem 4.21. Deterministic.
// At d = 0 the clusters are the decomposition's own (k = 1): a partition
// of the nodes, each with its Steiner tree.
func Build(g *graph.Graph, d int) *Cover {
	return buildMasked(g, d, nil)
}

// buildMasked constructs the sparse d-cover of the alive nodes.
// alive (nil = no faults) masks the *expansion* only: the base
// decomposition is computed over the full set — it is fault-independent,
// which is what lets repair patch a faulted cover incrementally instead
// of re-deriving the decomposition — while cluster seeds shrink to the
// alive members, BFS relays route only through alive nodes, and clusters
// whose seeds all died disappear. Separation only improves under a mask
// (masked distances dominate true distances), so the cover properties
// hold over the alive subgraph. Deterministic.
func buildMasked(g *graph.Graph, d int, alive []bool) *Cover {
	if d < 0 {
		panic(fmt.Sprintf("cover: d must be >= 0, got %d", d))
	}
	if alive != nil && len(alive) != g.N() {
		panic(fmt.Sprintf("cover: alive mask has %d entries for %d nodes", len(alive), g.N()))
	}
	dec := decomp.Build(g, 2*d+1)
	cov := &Cover{D: d, g: g, dec: dec, alive: alive}
	// One epoch-stamped BFS scratch serves every cluster expansion.
	ex := newExpander(g, d)
	for _, colorClusters := range dec.Colors {
		for _, dc := range colorClusters {
			seeds := aliveSeeds(dc.Members, alive)
			if len(seeds) == 0 {
				continue // every seed died; the cluster is gone
			}
			cl := ex.expand(dc, alive, seeds)
			cl.ID = ClusterID(len(cov.Clusters))
			cov.Clusters = append(cov.Clusters, cl)
		}
	}
	cov.reindex(g.N())
	return cov
}

// BFSTree returns a one-cluster cover whose tree is g's BFS tree from
// root, each node's parent its first neighbor one hop closer to root. Every
// node is a member; β and the MST barrier run on it.
func BFSTree(g *graph.Graph, root graph.NodeID) *Cover {
	dist := g.BFS(root)
	nodes := make([]graph.NodeID, g.N())
	parents := make([]graph.NodeID, g.N())
	height := 0
	for v := range nodes {
		if dist[v] < 0 {
			panic(fmt.Sprintf("cover: BFSTree on graph disconnected at %d", v))
		}
		nodes[v], parents[v] = graph.NodeID(v), -1
		for _, nb := range g.Neighbors(graph.NodeID(v)) {
			if dist[nb.Node] == dist[v]-1 {
				parents[v] = nb.Node
				break
			}
		}
		height = max(height, dist[v])
	}
	cl := &Cluster{Members: nodes, Seeds: nodes, Steiner: decomp.Steiner{Root: root, Nodes: nodes, Parents: parents, Height: height}}
	cov := &Cover{D: g.N() - 1, Clusters: []*Cluster{cl}}
	cov.reindex(g.N())
	return cov
}

// aliveSeeds filters members (ascending) by the mask; a nil mask shares
// the member slice itself.
func aliveSeeds(members []graph.NodeID, alive []bool) []graph.NodeID {
	if alive == nil {
		return members
	}
	out := members[:0:0]
	for _, v := range members {
		if alive[v] {
			out = append(out, v)
		}
	}
	return out
}

// reindex builds the per-node columns from the cluster list: one pass
// counts, one fills. Clusters are scanned in ascending id order, so every
// node's lists come out ascending. It is the one place tree children are
// derived: from each cluster's stored parents, ascending. home[v] is the
// cluster v seeds; every covered node seeds exactly one.
func (c *Cover) reindex(n int) {
	c.memberOff, c.refOff = make([]int32, n+1), make([]int32, n+1)
	kids := 0
	for i, cl := range c.Clusters {
		if cl.ID != ClusterID(i) {
			panic(fmt.Sprintf("cover: cluster %d has ID %d", i, cl.ID))
		}
		for _, v := range cl.Members {
			c.memberOff[v+1]++
		}
		for _, v := range cl.Nodes {
			c.refOff[v+1]++
		}
		kids += len(cl.Nodes) - 1
	}
	for v := range n {
		c.memberOff[v+1] += c.memberOff[v]
		c.refOff[v+1] += c.refOff[v]
	}
	c.memberIDs, c.refs = make([]ClusterID, c.memberOff[n]), make([]Ref, c.refOff[n])
	c.kids = make([]graph.NodeID, kids)
	c.home = slices.Repeat([]ClusterID{-1}, n)
	memberAt, refAt := slices.Clone(c.memberOff), slices.Clone(c.refOff)
	// at[v] is v's position in the cluster being indexed. off[i] first
	// counts node i's children, then ends, then (filled back to front)
	// starts their run in kids; off[len] ends the cluster's last run.
	at := make([]int32, n)
	var off []int32
	end := int32(0)
	for _, cl := range c.Clusters {
		for _, v := range cl.Members {
			c.memberIDs[memberAt[v]] = cl.ID
			memberAt[v]++
		}
		for i, v := range cl.Nodes {
			at[v] = int32(i)
		}
		off = append(off[:0], make([]int32, len(cl.Nodes)+1)...)
		for _, p := range cl.Parents {
			if p >= 0 {
				off[at[p]]++
			}
		}
		for i := range cl.Nodes {
			end += off[i]
			off[i] = end
		}
		off[len(cl.Nodes)] = end
		for i := len(cl.Nodes) - 1; i >= 0; i-- {
			if p := cl.Parents[i]; p >= 0 {
				off[at[p]]--
				c.kids[off[at[p]]] = cl.Nodes[i]
			}
		}
		for i, v := range cl.Nodes {
			c.refs[refAt[v]] = Ref{ID: cl.ID, Parent: cl.Parents[i], kid0: off[i], kid1: off[i+1], Member: cl.Has(v)}
			refAt[v]++
		}
		for _, v := range cl.Seeds {
			c.home[v] = cl.ID
		}
	}
}

// expander wraps the shared epoch-stamped BFS scratch (decomp.BFSScratch)
// with the tree-splicing chain buffer.
type expander struct {
	d     int
	bfs   *decomp.BFSScratch
	chain []graph.NodeID
}

func newExpander(g *graph.Graph, d int) *expander {
	return &expander{d: d, bfs: decomp.NewBFSScratch(g)}
}

// expand grows dc to its d-neighborhood among the alive nodes,
// extending the Steiner tree along BFS paths (through alive relay nodes
// in G). seeds must be dc's alive members, ascending. The regrown base
// tree keeps dead members and Steiner nodes as nonterminal relics —
// identically in full builds, masked builds, and repairs, which is what
// makes repaired clusters byte-equal to from-scratch ones.
func (ex *expander) expand(dc *decomp.Cluster, alive []bool, seeds []graph.NodeID) *Cluster {
	tree := decomp.GrowFrom(dc.Steiner)
	visited := ex.bfs.Run(seeds, ex.d, alive)
	members := append([]graph.NodeID(nil), seeds...)
	for _, v := range visited[len(seeds):] {
		members = append(members, v)
		ex.chain = tree.Splice(v, ex.bfs.Parent, ex.chain)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return &Cluster{Members: members, Seeds: seeds, Steiner: tree.Finish(), base: dc}
}

// Layered is a layered sparse cover (§2.1): Levels[j] is a sparse
// 2^j-cover. One taken from a level cache (core.CoverLevels) may leave the
// levels its reader does not need nil.
type Layered struct {
	Levels []*Cover
}

// BuildLayered constructs every level of the layered cover up to radius d.
func BuildLayered(g *graph.Graph, d int) *Layered {
	return BuildLayeredMasked(g, d, nil)
}

// BuildLayeredMasked constructs the layered sparse cover of the alive
// nodes (see buildMasked).
func BuildLayeredMasked(g *graph.Graph, d int, alive []bool) *Layered {
	if d < 1 {
		panic(fmt.Sprintf("cover: layered d must be >= 1, got %d", d))
	}
	var levels []*Cover
	for j := 0; ; j++ {
		r := 1 << uint(j)
		levels = append(levels, buildMasked(g, r, alive))
		if r >= d {
			break
		}
	}
	return &Layered{Levels: levels}
}

// Level returns the sparse 2^j-cover. It panics for a level that was not
// built: one past MaxLevel, or one a cached Layered left nil.
func (l *Layered) Level(j int) *Cover {
	if j < 0 || j >= len(l.Levels) || l.Levels[j] == nil {
		panic(fmt.Sprintf("cover: level %d not built (have up to %d)", j, len(l.Levels)-1))
	}
	return l.Levels[j]
}

// MaxLevel returns the largest level index.
func (l *Layered) MaxLevel() int { return len(l.Levels) - 1 }
