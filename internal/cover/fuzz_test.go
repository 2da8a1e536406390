package cover

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzCoverLevel builds covers of graph.FromSpec families at radius d and
// checks the ref column against each cluster's stored tree: the tree has
// one root, Cluster.Root, and every parent chain reaches it within Height
// steps; a node has one ref per cluster tree it is on, ascending by id;
// each ref's member flag is Cluster.Has, its parent is the stored one, and
// its children are exactly the nodes whose stored parent it is, ascending.
// It also checks Definition 2.1: Home(v) holds v's whole d-ball.
func FuzzCoverLevel(f *testing.F) {
	f.Add(uint8(0), uint8(30), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(40), uint8(3), uint8(3))
	f.Add(uint8(2), uint8(6), uint8(7), uint8(2))
	f.Add(uint8(3), uint8(20), uint8(1), uint8(0))
	f.Add(uint8(4), uint8(62), uint8(2), uint8(4))
	f.Add(uint8(5), uint8(70), uint8(90), uint8(1))
	f.Add(uint8(6), uint8(80), uint8(5), uint8(2))
	f.Add(uint8(7), uint8(4), uint8(3), uint8(7))
	f.Add(uint8(1), uint8(87), uint8(0), uint8(0))  // cycle:90 at d=1 has Steiner relays
	f.Add(uint8(5), uint8(198), uint8(3), uint8(8)) // er:n=80 at d=0, γ's partition, has Steiner relays
	f.Fuzz(func(t *testing.T, kind, a, b, d uint8) {
		n := 2 + int(a)%120
		spec := []string{
			fmt.Sprintf("path:%d", n),
			fmt.Sprintf("cycle:%d", n+1),
			fmt.Sprintf("grid:%dx%d", 1+int(a)%13, 2+int(b)%13),
			fmt.Sprintf("star:%d", n),
			fmt.Sprintf("tree:%d", n),
			fmt.Sprintf("er:n=%d,m=%d,seed=%d", n, n-1+int(b)%(2*n), b),
			fmt.Sprintf("pa:n=%d,m=%d,seed=%d", n, 1+int(b)%3, b),
			fmt.Sprintf("ring:k=%d,c=%d", 2+int(a)%6, 2+int(b)%4),
		}[int(kind)%8]
		g, err := graph.FromSpec(spec)
		if err != nil {
			t.Skip(err)
		}
		c := Build(g, (1+int(d))%9) // d byte 8 is γ's partition, d = 0
		onTree := make([][]ClusterID, g.N())
		kids := make([]map[graph.NodeID][]graph.NodeID, len(c.Clusters))
		for _, cl := range c.Clusters {
			kids[cl.ID] = checkStoredTree(t, cl)
			for _, v := range cl.Nodes {
				onTree[v] = append(onTree[v], cl.ID)
			}
		}
		for v := range graph.NodeID(g.N()) {
			refs := c.Refs(v)
			if len(refs) != len(onTree[v]) {
				t.Fatalf("%s d=%d: node %d has %d refs, is on %d cluster trees", spec, c.D, v, len(refs), len(onTree[v]))
			}
			for i, r := range refs {
				cl := c.Clusters[onTree[v][i]]
				parent := cl.Parents[slices.Index(cl.Nodes, v)]
				got, want := c.Children(r), kids[cl.ID][v]
				switch {
				case r.ID != cl.ID:
					t.Fatalf("%s d=%d: node %d ref %d names cluster %d, want %d", spec, c.D, v, i, r.ID, cl.ID)
				case c.Ref(v, cl.ID) != r:
					t.Fatalf("%s d=%d: node %d Ref(%d) = %+v, want %+v", spec, c.D, v, cl.ID, c.Ref(v, cl.ID), r)
				case r.Member != cl.Has(v):
					t.Fatalf("%s d=%d: node %d cluster %d member flag %v", spec, c.D, v, cl.ID, r.Member)
				case r.Parent != parent:
					t.Fatalf("%s d=%d: node %d cluster %d parent %d, tree says %d", spec, c.D, v, cl.ID, r.Parent, parent)
				case !slices.Equal(got, want):
					t.Fatalf("%s d=%d: node %d cluster %d children %v, tree says %v", spec, c.D, v, cl.ID, got, want)
				}
			}
			home := c.Home(v)
			if home < 0 {
				t.Fatalf("%s d=%d: node %d has no home cluster", spec, c.D, v)
			}
			for _, u := range g.Ball(v, c.D) {
				if !c.Clusters[home].Has(u) {
					t.Fatalf("%s d=%d: home %d of node %d misses %d", spec, c.D, home, v, u)
				}
			}
		}
	})
}

// checkStoredTree checks a cluster's stored tree on its own: one root,
// Cluster.Root, and every parent chain reaching it within Height steps, the
// longest in exactly Height. It returns each node's children, ascending:
// the nodes whose stored parent it is.
func checkStoredTree(t *testing.T, cl *Cluster) map[graph.NodeID][]graph.NodeID {
	t.Helper()
	pos := make(map[graph.NodeID]int, len(cl.Nodes))
	for i, v := range cl.Nodes {
		pos[v] = i
	}
	kids := make(map[graph.NodeID][]graph.NodeID)
	roots, deepest := 0, 0
	for i, v := range cl.Nodes {
		if cl.Parents[i] < 0 {
			roots++
			if v != cl.Root {
				t.Fatalf("cluster %d: node %d has no parent, root is %d", cl.ID, v, cl.Root)
			}
			continue
		}
		kids[cl.Parents[i]] = append(kids[cl.Parents[i]], v)
		steps := 0
		for w := v; w != cl.Root; steps++ {
			j, ok := pos[w]
			if !ok || steps == cl.Height {
				t.Fatalf("cluster %d: parent chain from %d leaves the tree or outgrows height %d at %d", cl.ID, v, cl.Height, w)
			}
			w = cl.Parents[j]
		}
		deepest = max(deepest, steps)
	}
	if roots != 1 || deepest != cl.Height {
		t.Fatalf("cluster %d: %d roots, deepest node at %d, height %d", cl.ID, roots, deepest, cl.Height)
	}
	return kids
}
