package decomp

import (
	"math/bits"
	"testing"

	"repro/internal/graph"
)

// checkDecomposition validates every guarantee of Theorem 4.20 on g.
func checkDecomposition(t *testing.T, g *graph.Graph, k int, d *Decomposition) {
	t.Helper()
	n := g.N()
	logn := bits.Len(uint(n))

	// Every node is clustered exactly once.
	seen := make(map[graph.NodeID]bool)
	for _, c := range d.Clusters() {
		for _, v := range c.Members {
			if seen[v] {
				t.Fatalf("node %d in two clusters", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("clustered %d of %d nodes", len(seen), n)
	}

	// O(log n) colors.
	if len(d.Colors) > 4*logn+4 {
		t.Fatalf("%d colors for n=%d", len(d.Colors), n)
	}

	// Separation: same-color clusters are more than k apart.
	for _, cs := range d.Colors {
		for i, a := range cs {
			for j, b := range cs {
				if i >= j {
					continue
				}
				if dist := g.DistanceBetweenSets(a.Members, b.Members); dist >= 0 && dist <= k {
					t.Fatalf("color-%d clusters %d,%d at distance %d <= k=%d",
						a.Color, i, j, dist, k)
				}
			}
		}
	}

	// Tree validity: spans members, parent edges are graph edges, depths
	// consistent, radius O(k·log³n).
	radiusBound := 3 * k * logn * logn * logn
	if radiusBound < 4*k {
		radiusBound = 4 * k
	}
	for _, c := range d.Clusters() {
		tr := c.Tree
		for _, v := range c.Members {
			if !tr.Has(v) {
				t.Fatalf("member %d missing from tree", v)
			}
		}
		for _, child := range tr.Nodes() {
			par, ok := tr.ParentOf(child)
			if !ok {
				continue
			}
			if g.EdgeBetween(child, par) < 0 {
				t.Fatalf("tree edge {%d,%d} not a graph edge", child, par)
			}
			if tr.DepthAt(child) != tr.DepthAt(par)+1 {
				t.Fatalf("depth inconsistency at %d", child)
			}
		}
		if tr.DepthAt(tr.Root) != 0 {
			t.Fatal("root depth nonzero")
		}
		if tr.Depth() > radiusBound {
			t.Fatalf("tree radius %d exceeds bound %d (k=%d, n=%d)",
				tr.Depth(), radiusBound, k, n)
		}
	}

	// Edge congestion: each edge in O(log⁴ n) Steiner trees.
	cong := make(map[[2]graph.NodeID]int)
	for _, c := range d.Clusters() {
		for _, e := range c.Tree.Edges() {
			key := e
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			cong[key]++
		}
	}
	congBound := logn*logn*logn*logn + 8
	for e, c := range cong {
		if c > congBound {
			t.Fatalf("edge %v in %d trees (bound %d)", e, c, congBound)
		}
	}
}

func TestDecompositionFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"path64-k3", graph.Path(64), 3},
		{"cycle50-k5", graph.Cycle(50), 5},
		{"grid8x8-k3", graph.Grid(8, 8), 3},
		{"tree63-k4", specGraph("tree:63"), 4},
		{"er80-k3", graph.RandomConnected(80, 200, 17), 3},
		{"star40-k2", specGraph("star:40"), 2},
		{"complete20-k1", specGraph("complete:20"), 1},
		{"dumbbell-k3", graph.Dumbbell(8, 10), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := Build(tc.g, tc.k, nil)
			checkDecomposition(t, tc.g, tc.k, d)
		})
	}
}

func TestDecompositionLargerK(t *testing.T) {
	g := graph.Grid(10, 10)
	for _, k := range []int{1, 2, 5, 9, 21} {
		d := Build(g, k, nil)
		checkDecomposition(t, g, k, d)
	}
}

func TestDecompositionSubset(t *testing.T) {
	g := graph.Grid(9, 9)
	// Cluster only the even nodes.
	var s []graph.NodeID
	for v := 0; v < g.N(); v += 2 {
		s = append(s, graph.NodeID(v))
	}
	d := Build(g, 3, s)
	clustered := make(map[graph.NodeID]bool)
	for _, c := range d.Clusters() {
		for _, v := range c.Members {
			clustered[v] = true
		}
	}
	if len(clustered) != len(s) {
		t.Fatalf("clustered %d of %d subset nodes", len(clustered), len(s))
	}
	for v := range clustered {
		if v%2 != 0 {
			t.Fatalf("non-subset node %d clustered", v)
		}
	}
}

func TestDecompositionDeterminism(t *testing.T) {
	g := graph.RandomConnected(60, 140, 4)
	a, b := Build(g, 3, nil), Build(g, 3, nil)
	ca, cb := a.Clusters(), b.Clusters()
	if len(ca) != len(cb) {
		t.Fatal("cluster counts differ")
	}
	for i := range ca {
		if ca[i].Label != cb[i].Label || len(ca[i].Members) != len(cb[i].Members) {
			t.Fatal("cluster contents differ between runs")
		}
	}
}

func TestFirstColorClustersHalf(t *testing.T) {
	// Invariant (III) aggregated: the first color must keep >= half the
	// nodes alive.
	for _, g := range []*graph.Graph{graph.Grid(8, 8), graph.Cycle(64), graph.RandomConnected(100, 250, 9)} {
		d := Build(g, 3, nil)
		first := 0
		for _, c := range d.Colors[0] {
			first += len(c.Members)
		}
		if 2*first < g.N() {
			t.Fatalf("first color clustered %d of %d", first, g.N())
		}
	}
}

func TestTreeHelperMethods(t *testing.T) {
	g := graph.Path(8)
	d := Build(g, 2, nil)
	c := d.Clusters()[0]
	nodes := c.Tree.Nodes()
	if len(nodes) == 0 || !c.Tree.Has(c.Tree.Root) {
		t.Fatal("tree nodes/Has broken")
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatal("Nodes not sorted")
		}
	}
	if len(c.Tree.Edges()) != len(nodes)-1 {
		t.Fatalf("tree has %d edges for %d nodes", len(c.Tree.Edges()), len(nodes))
	}
}

func TestBuildPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	Build(graph.Path(4), 0, nil)
}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}
