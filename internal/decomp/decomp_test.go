package decomp

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// Clusters returns all clusters across colors.
func (d *Decomposition) Clusters() []*Cluster {
	var out []*Cluster
	for _, cs := range d.Colors {
		out = append(out, cs...)
	}
	return out
}

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

	// Tree validity: spans members, parent edges are graph edges, every
	// parent chain reaches the root, radius O(k·log³n).
	radiusBound := 3 * k * logn * logn * logn
	if radiusBound < 4*k {
		radiusBound = 4 * k
	}
	for _, c := range d.Clusters() {
		depth := treeDepths(t, c.Steiner)
		for _, v := range c.Members {
			if _, ok := depth[v]; !ok {
				t.Fatalf("member %d missing from tree", v)
			}
		}
		height := 0
		for i, child := range c.Nodes {
			height = max(height, depth[child])
			par := c.Parents[i]
			if par < 0 {
				continue
			}
			if g.EdgeBetween(child, par) < 0 {
				t.Fatalf("tree edge {%d,%d} not a graph edge", child, par)
			}
		}
		if height != c.Height {
			t.Fatalf("tree height %d, stored %d", height, c.Height)
		}
		if c.Height > radiusBound {
			t.Fatalf("tree radius %d exceeds bound %d (k=%d, n=%d)",
				c.Height, radiusBound, k, n)
		}
	}

	// Edge congestion: each edge in O(log⁴ n) Steiner trees.
	cong := make(map[[2]graph.NodeID]int)
	for _, c := range d.Clusters() {
		for i, v := range c.Nodes {
			if p := c.Parents[i]; p >= 0 {
				cong[[2]graph.NodeID{min(v, p), max(v, p)}]++
			}
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
			d := Build(tc.g, tc.k)
			checkDecomposition(t, tc.g, tc.k, d)
		})
	}
}

func TestDecompositionLargerK(t *testing.T) {
	g := graph.Grid(10, 10)
	for _, k := range []int{1, 2, 5, 9, 21} {
		d := Build(g, k)
		checkDecomposition(t, g, k, d)
	}
}

func TestDecompositionDeterminism(t *testing.T) {
	g := graph.RandomConnected(60, 140, 4)
	a, b := Build(g, 3), Build(g, 3)
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
		d := Build(g, 3)
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
	d := Build(g, 2)
	c := d.Clusters()[0]
	if !slices.IsSorted(c.Nodes) || !slices.Contains(c.Nodes, c.Root) {
		t.Fatalf("tree nodes %v: not sorted or missing root %d", c.Nodes, c.Root)
	}
	treeDepths(t, c.Steiner)
	if got := GrowFrom(c.Steiner).Finish(); !reflect.DeepEqual(got, c.Steiner) {
		t.Fatalf("GrowFrom(s).Finish() = %+v, want %+v", got, c.Steiner)
	}
}

// treeDepths returns every tree node's hop distance from the root, found by
// walking its parent chain in the stored form; a chain that leaves the tree
// or does not end at the root fails the test.
func treeDepths(t *testing.T, s Steiner) map[graph.NodeID]int {
	t.Helper()
	parent := make(map[graph.NodeID]graph.NodeID, len(s.Nodes))
	for i, v := range s.Nodes {
		parent[v] = s.Parents[i]
	}
	if parent[s.Root] != -1 {
		t.Fatalf("root %d has parent %d", s.Root, parent[s.Root])
	}
	depth := make(map[graph.NodeID]int, len(s.Nodes))
	for _, v := range s.Nodes {
		d := 0
		for w := v; w != s.Root; d++ {
			p, ok := parent[w]
			if !ok || p < 0 || d >= len(s.Nodes) {
				t.Fatalf("parent chain from %d does not reach root %d", v, s.Root)
			}
			w = p
		}
		depth[v] = d
	}
	return depth
}

func TestBuildPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	Build(graph.Path(4), 0)
}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}
