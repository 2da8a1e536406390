// Package cover builds sparse d-covers (Definition 2.1) and layered covers
// from the k-separated network decomposition, following Theorem 4.21:
// construct a (2d+1)-separated weak-diameter decomposition, then expand
// every cluster to its d-neighborhood. Same-color clusters are more than
// 2d+1 apart, so the d-expansions stay disjoint per color, every node lands
// in O(log n) clusters (at most one per color), and for every node v the
// expansion of v's own decomposition cluster contains v's entire d-ball.
package cover

import (
	"fmt"
	"sort"

	"repro/internal/decomp"
	"repro/internal/graph"
)

// ClusterID identifies a cluster within one Cover. 32-bit, matching the
// graph plane's compact ids: the per-node memberOf/treeOf/home tables are
// the dominant cover footprint at scale.
type ClusterID int32

// Cluster is one cover cluster: member nodes plus a rooted cluster tree
// (weak: the tree may pass through non-member Steiner nodes).
type Cluster struct {
	ID      ClusterID
	Root    graph.NodeID
	Members []graph.NodeID // ascending
	// Seeds are the decomposition-cluster members the d-expansion grew
	// from (the alive ones, under a masked build) — ascending. Repair's
	// dirty certificate tests fault distance against this set.
	Seeds []graph.NodeID
	Tree  *decomp.Tree

	// base is the decomposition cluster this cover cluster expands;
	// Repair walks the decomposition in build order and matches reusable
	// clusters through it.
	base *decomp.Cluster
}

// Has reports whether v is a member (terminal) of the cluster.
func (c *Cluster) Has(v graph.NodeID) bool {
	i := sort.Search(len(c.Members), func(i int) bool { return c.Members[i] >= v })
	return i < len(c.Members) && c.Members[i] == v
}

// ParentOf returns v's parent in the cluster tree; ok=false at the root.
func (c *Cluster) ParentOf(v graph.NodeID) (graph.NodeID, bool) {
	return c.Tree.ParentOf(v)
}

// ChildrenOf returns v's children in the cluster tree (ascending); the
// returned slice must not be mutated.
func (c *Cluster) ChildrenOf(v graph.NodeID) []graph.NodeID {
	return c.Tree.ChildrenOf(v)
}

// ChildIndex returns ch's position in ChildrenOf(v), or -1 when ch is not
// a tree child of v. Per-child protocol state is laid out by this index.
func (c *Cluster) ChildIndex(v, ch graph.NodeID) int {
	children := c.Tree.ChildrenOf(v)
	i := sort.Search(len(children), func(i int) bool { return children[i] >= ch })
	if i < len(children) && children[i] == ch {
		return i
	}
	return -1
}

// Cover is a sparse d-cover: a set of clusters such that every node is in
// O(log n) clusters and every node's d-ball is fully inside at least one
// cluster.
type Cover struct {
	// D is the covered radius: any two nodes at distance <= D share a
	// cluster.
	D        int
	Clusters []*Cluster
	// memberOf[v] lists clusters that contain v as a member.
	memberOf [][]ClusterID
	// treeOf[v] lists clusters whose tree v participates in (superset of
	// memberOf: Steiner nonterminals relay but are not covered).
	treeOf [][]ClusterID
	// home[v] is a cluster guaranteed to contain Ball(v, D).
	home []ClusterID

	// Retained for Repair: the fault-independent base decomposition, the
	// covered node set, the alive mask this cover was built under (nil =
	// no faults), and the graph.
	g     *graph.Graph
	dec   *decomp.Decomposition
	inS   []bool
	alive []bool
}

// MemberOf returns the clusters containing v, ascending by id. Do not
// mutate.
func (c *Cover) MemberOf(v graph.NodeID) []ClusterID { return c.memberOf[v] }

// TreeOf returns the clusters whose tree v participates in, ascending by
// id. Do not mutate.
func (c *Cover) TreeOf(v graph.NodeID) []ClusterID { return c.treeOf[v] }

// TreeIndex returns id's position in TreeOf(v), or -1 when v is not on
// that cluster's tree. Per-cluster protocol state is laid out by this index.
func (c *Cover) TreeIndex(v graph.NodeID, id ClusterID) int {
	tree := c.treeOf[v]
	i := sort.Search(len(tree), func(i int) bool { return tree[i] >= id })
	if i < len(tree) && tree[i] == id {
		return i
	}
	return -1
}

// Home returns a cluster whose member set contains every node within
// distance D of v (the strengthened covering property of Definition 2.1).
func (c *Cover) Home(v graph.NodeID) ClusterID { return c.home[v] }

// Cluster returns the cluster with the given id.
func (c *Cover) Cluster(id ClusterID) *Cluster { return c.Clusters[id] }

// MaxTreeDepth returns the deepest cluster tree in the cover.
func (c *Cover) MaxTreeDepth() int {
	max := 0
	for _, cl := range c.Clusters {
		if d := cl.Tree.Depth(); d > max {
			max = d
		}
	}
	return max
}

// Build constructs a sparse d-cover of the nodes in s (nil = all nodes) by
// Theorem 4.21. Deterministic.
func Build(g *graph.Graph, d int, s []graph.NodeID) *Cover {
	return BuildMasked(g, d, s, nil)
}

// BuildMasked constructs the sparse d-cover of the alive nodes of s.
// alive (nil = no faults) masks the *expansion* only: the base
// decomposition is computed over the full set — it is fault-independent,
// which is what lets Repair patch a faulted cover incrementally instead
// of re-deriving the decomposition — while cluster seeds shrink to the
// alive members, BFS relays route only through alive nodes, and clusters
// whose seeds all died disappear. Separation only improves under a mask
// (masked distances dominate true distances), so the cover properties
// hold over the alive subgraph. Deterministic.
func BuildMasked(g *graph.Graph, d int, s []graph.NodeID, alive []bool) *Cover {
	if d < 1 {
		panic(fmt.Sprintf("cover: d must be >= 1, got %d", d))
	}
	if alive != nil && len(alive) != g.N() {
		panic(fmt.Sprintf("cover: alive mask has %d entries for %d nodes", len(alive), g.N()))
	}
	dec := decomp.Build(g, 2*d+1, s)
	inS := make([]bool, g.N())
	if s == nil {
		for i := range inS {
			inS[i] = true
		}
	} else {
		for _, v := range s {
			inS[v] = true
		}
	}
	cov := &Cover{D: d, g: g, dec: dec, inS: inS, alive: alive}
	// One epoch-stamped BFS scratch serves every cluster expansion.
	ex := newExpander(g, d)
	for _, colorClusters := range dec.Colors {
		for _, dc := range colorClusters {
			seeds := aliveSeeds(dc.Members, alive)
			if len(seeds) == 0 {
				continue // every seed died; the cluster is gone
			}
			cl := ex.expand(dc, inS, alive, seeds)
			cl.ID = ClusterID(len(cov.Clusters))
			cov.Clusters = append(cov.Clusters, cl)
		}
	}
	cov.reindex()
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

// reindex rebuilds the per-node lookup tables from the cluster list.
// Clusters are scanned in ascending ID order, so every per-node list
// comes out ascending; home is written from each cluster's seeds —
// every covered node seeds exactly one decomposition cluster.
func (c *Cover) reindex() {
	n := c.g.N()
	c.memberOf = make([][]ClusterID, n)
	c.treeOf = make([][]ClusterID, n)
	c.home = make([]ClusterID, n)
	for i := range c.home {
		c.home[i] = -1
	}
	for _, cl := range c.Clusters {
		for _, v := range cl.Members {
			c.memberOf[v] = append(c.memberOf[v], cl.ID)
		}
		for _, tv := range cl.Tree.Nodes() {
			c.treeOf[tv] = append(c.treeOf[tv], cl.ID)
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

// expand grows dc to its d-neighborhood among the alive nodes of s,
// extending the Steiner tree along BFS paths (through alive relay nodes
// in G). seeds must be dc's alive members, ascending. The cloned base
// tree keeps dead members and Steiner nodes as nonterminal relics —
// identically in full builds, masked builds, and repairs, which is what
// makes repaired clusters byte-equal to from-scratch ones.
func (ex *expander) expand(dc *decomp.Cluster, inS, alive []bool, seeds []graph.NodeID) *Cluster {
	tree := dc.Tree.Clone()
	visited := ex.bfs.Run(seeds, ex.d, alive)
	members := append([]graph.NodeID(nil), seeds...)
	for _, v := range visited[len(seeds):] {
		if !inS[v] {
			continue // only cover nodes of the target set
		}
		members = append(members, v)
		ex.attachPath(tree, v)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return &Cluster{Root: tree.Root, Members: members, Seeds: seeds, Tree: tree.Finalize(), base: dc}
}

// attachPath splices the BFS path from v back to the tree into the tree.
func (ex *expander) attachPath(tree *decomp.Tree, v graph.NodeID) {
	ex.chain = ex.chain[:0]
	w := v
	for !tree.Has(w) {
		ex.chain = append(ex.chain, w)
		p := ex.bfs.Parent(w)
		if p < 0 {
			panic("cover: BFS path did not reach the cluster tree")
		}
		w = p
	}
	for i := len(ex.chain) - 1; i >= 0; i-- {
		c := ex.chain[i]
		tree.Attach(c, w)
		w = c
	}
}

// Layered is a layered sparse d-cover: sparse 2^j-covers for all
// j in 0..⌈log₂ d⌉ (§2.1).
type Layered struct {
	// Levels[j] is a sparse 2^j-cover.
	Levels []*Cover
}

// BuildLayered constructs the layered sparse cover up to radius d.
func BuildLayered(g *graph.Graph, d int, s []graph.NodeID) *Layered {
	return BuildLayeredMasked(g, d, s, nil)
}

// BuildLayeredMasked constructs the layered sparse cover of the alive
// nodes of s (see BuildMasked).
func BuildLayeredMasked(g *graph.Graph, d int, s []graph.NodeID, alive []bool) *Layered {
	if d < 1 {
		panic(fmt.Sprintf("cover: layered d must be >= 1, got %d", d))
	}
	var levels []*Cover
	for j := 0; ; j++ {
		r := 1 << uint(j)
		levels = append(levels, BuildMasked(g, r, s, alive))
		if r >= d {
			break
		}
	}
	return &Layered{Levels: levels}
}

// Level returns the sparse 2^j-cover; panics when j exceeds what was built.
func (l *Layered) Level(j int) *Cover {
	if j < 0 || j >= len(l.Levels) {
		panic(fmt.Sprintf("cover: level %d not built (have %d)", j, len(l.Levels)))
	}
	return l.Levels[j]
}

// MaxLevel returns the largest built level index.
func (l *Layered) MaxLevel() int { return len(l.Levels) - 1 }
