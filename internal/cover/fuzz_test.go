package cover

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzCoverLevel builds covers of graph.FromSpec families at radius d and
// checks the ref column against each cluster's own tree: a node has one
// ref per cluster tree it is on, ascending by id, and each ref's member
// flag, parent and children are the cluster's. It also checks that a
// RecordStarts column spans exactly each ref's record, and Definition 2.1:
// Home(v) holds v's whole d-ball.
func FuzzCoverLevel(f *testing.F) {
	f.Add(uint8(0), uint8(30), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(40), uint8(3), uint8(3))
	f.Add(uint8(2), uint8(6), uint8(7), uint8(2))
	f.Add(uint8(3), uint8(20), uint8(1), uint8(0))
	f.Add(uint8(4), uint8(62), uint8(2), uint8(4))
	f.Add(uint8(5), uint8(70), uint8(90), uint8(1))
	f.Add(uint8(6), uint8(80), uint8(5), uint8(2))
	f.Add(uint8(7), uint8(4), uint8(3), uint8(7))
	f.Add(uint8(1), uint8(87), uint8(0), uint8(0)) // cycle:90 at d=1 has Steiner relays
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
		c := Build(g, 1+int(d)%8)
		onTree := make([][]ClusterID, g.N())
		for _, cl := range c.Clusters {
			for _, v := range cl.Tree.Nodes() {
				onTree[v] = append(onTree[v], cl.ID)
			}
		}
		starts := c.RecordStarts(1)
		for v := range graph.NodeID(g.N()) {
			refs, first := c.Refs(v), c.FirstRef(v)
			if len(refs) != len(onTree[v]) {
				t.Fatalf("%s d=%d: node %d has %d refs, is on %d cluster trees", spec, c.D, v, len(refs), len(onTree[v]))
			}
			for i, r := range refs {
				cl := c.Cluster(onTree[v][i])
				parent, ok := cl.Tree.ParentOf(v)
				if !ok {
					parent = -1
				}
				kids := c.Children(r)
				switch {
				case r.ID != cl.ID:
					t.Fatalf("%s d=%d: node %d ref %d names cluster %d, want %d", spec, c.D, v, i, r.ID, cl.ID)
				case r.Member != cl.Has(v):
					t.Fatalf("%s d=%d: node %d cluster %d member flag %v", spec, c.D, v, cl.ID, r.Member)
				case r.Parent != parent:
					t.Fatalf("%s d=%d: node %d cluster %d parent %d, tree says %d", spec, c.D, v, cl.ID, r.Parent, parent)
				case !slices.Equal(kids, cl.Tree.ChildrenOf(v)):
					t.Fatalf("%s d=%d: node %d cluster %d children %v, tree says %v", spec, c.D, v, cl.ID, kids, cl.Tree.ChildrenOf(v))
				case starts[first+i+1]-starts[first+i] != int32(1+(len(kids)+7)/8):
					t.Fatalf("%s d=%d: node %d cluster %d record spans %d bytes for %d children", spec, c.D, v, cl.ID, starts[first+i+1]-starts[first+i], len(kids))
				}
			}
			home := c.Home(v)
			if home < 0 {
				t.Fatalf("%s d=%d: node %d has no home cluster", spec, c.D, v)
			}
			for _, u := range g.Ball(v, c.D) {
				if !c.Cluster(home).Has(u) {
					t.Fatalf("%s d=%d: home %d of node %d misses %d", spec, c.D, home, v, u)
				}
			}
		}
	})
}
