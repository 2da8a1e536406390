package cover

import (
	"math/bits"
	"testing"

	"repro/internal/graph"
)

// checkCover validates Definition 2.1 plus the §2.1 congestion properties.
func checkCover(t *testing.T, g *graph.Graph, c *Cover) {
	t.Helper()
	n := g.N()
	logn := bits.Len(uint(n))

	// Sparseness: each node in O(log n) clusters (one per color).
	for v := 0; v < n; v++ {
		if len(c.MemberOf(graph.NodeID(v))) > 4*logn+4 {
			t.Fatalf("node %d in %d clusters", v, len(c.MemberOf(graph.NodeID(v))))
		}
	}

	// Strengthened covering: Home(v) contains Ball(v, D).
	for v := 0; v < n; v++ {
		id := c.Home(graph.NodeID(v))
		if id < 0 {
			t.Fatalf("node %d has no home cluster", v)
		}
		cl := c.Cluster(id)
		for _, u := range g.Ball(graph.NodeID(v), c.D) {
			if !cl.Has(u) {
				t.Fatalf("home of %d misses %d (dist <= %d)", v, u, c.D)
			}
		}
		if !contains(c.MemberOf(graph.NodeID(v)), id) {
			t.Fatalf("home of %d not in its member list", v)
		}
	}

	// Tree sanity: spans members; parent edges are graph edges; radius
	// O(D·log³n).
	bound := 3*c.D*logn*logn*logn + 4*c.D + 8
	for _, cl := range c.Clusters {
		for _, v := range cl.Members {
			if !cl.Tree.Has(v) {
				t.Fatalf("cluster %d member %d missing from tree", cl.ID, v)
			}
		}
		for _, child := range cl.Tree.Nodes() {
			par, ok := cl.Tree.ParentOf(child)
			if !ok {
				continue
			}
			if g.EdgeBetween(child, par) < 0 {
				t.Fatalf("tree edge {%d,%d} not in graph", child, par)
			}
		}
		if d := cl.Tree.Depth(); d > bound {
			t.Fatalf("cluster %d tree depth %d > bound %d", cl.ID, d, bound)
		}
	}

	// Edge congestion: each edge in O(log⁴n) cluster trees.
	cong := make(map[[2]graph.NodeID]int)
	for _, cl := range c.Clusters {
		for _, e := range cl.Tree.Edges() {
			key := e
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			cong[key]++
		}
	}
	congBound := logn*logn*logn*logn + 8
	for e, cnt := range cong {
		if cnt > congBound {
			t.Fatalf("edge %v in %d trees (bound %d)", e, cnt, congBound)
		}
	}

	// treeOf ⊇ memberOf.
	for v := 0; v < n; v++ {
		for _, id := range c.MemberOf(graph.NodeID(v)) {
			if !contains(c.TreeOf(graph.NodeID(v)), id) {
				t.Fatalf("node %d member of %d but not in its tree list", v, id)
			}
		}
	}
}

func contains(s []ClusterID, id ClusterID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}

func TestCoverFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"path48-d4", graph.Path(48), 4},
		{"cycle60-d4", graph.Cycle(60), 4},
		{"grid7x9-d3", graph.Grid(7, 9), 3},
		{"tree63-d5", specGraph("tree:63"), 5},
		{"er70-d3", graph.RandomConnected(70, 170, 23), 3},
		{"dumbbell-d4", graph.Dumbbell(6, 8), 4},
		{"complete16-d1", specGraph("complete:16"), 1},
		// Implicit-generator topologies: covers must build directly on CSR
		// graphs that never went through AddEdge.
		{"grid3d-3x4x5-d2", specGraph("grid3d:3x4x5"), 2},
		{"pa-n80-m2-d2", specGraph("pa:n=80,m=2,seed=7"), 2},
		{"ring-k5-c4-d2", specGraph("ring:k=5,c=4"), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkCover(t, tc.g, Build(tc.g, tc.d, nil))
		})
	}
}

// Explicit Definition 2.1 pair condition: any u,v at distance <= d share a
// cluster.
func TestPairCovering(t *testing.T) {
	g := graph.Grid(6, 6)
	c := Build(g, 2, nil)
	for u := 0; u < g.N(); u++ {
		du := g.BFS(graph.NodeID(u))
		for v := u + 1; v < g.N(); v++ {
			if du[v] > 2 {
				continue
			}
			shared := false
			for _, id := range c.MemberOf(graph.NodeID(u)) {
				if c.Cluster(id).Has(graph.NodeID(v)) {
					shared = true
					break
				}
			}
			if !shared {
				t.Fatalf("nodes %d,%d at distance %d share no cluster", u, v, du[v])
			}
		}
	}
}

func TestCoverOnSubset(t *testing.T) {
	g := graph.Grid(8, 8)
	// Only the left half is "alive".
	var s []graph.NodeID
	for r := 0; r < 8; r++ {
		for c := 0; c < 4; c++ {
			s = append(s, graph.NodeID(r*8+c))
		}
	}
	cov := Build(g, 3, s)
	inS := make(map[graph.NodeID]bool)
	for _, v := range s {
		inS[v] = true
	}
	for _, cl := range cov.Clusters {
		for _, v := range cl.Members {
			if !inS[v] {
				t.Fatalf("cover cluster contains non-subset node %d", v)
			}
		}
	}
	// Every subset node still has a home covering its subset-restricted
	// d-ball (distances in G).
	for _, v := range s {
		cl := cov.Cluster(cov.Home(v))
		for _, u := range g.Ball(v, 3) {
			if inS[u] && !cl.Has(u) {
				t.Fatalf("home of %d misses subset node %d", v, u)
			}
		}
	}
}

func TestLayered(t *testing.T) {
	g := graph.Grid(6, 6)
	l := BuildLayered(g, 8, nil)
	if l.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d, want 3 (covers 1,2,4,8)", l.MaxLevel())
	}
	for j := 0; j <= l.MaxLevel(); j++ {
		c := l.Level(j)
		if c.D != 1<<uint(j) {
			t.Fatalf("level %d has D=%d", j, c.D)
		}
		checkCover(t, g, c)
	}
}

func TestLayeredLevelPanics(t *testing.T) {
	l := BuildLayered(graph.Path(8), 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range level")
		}
	}()
	l.Level(10)
}

func TestMaxTreeDepth(t *testing.T) {
	g := graph.Path(32)
	c := Build(g, 4, nil)
	if c.MaxTreeDepth() <= 0 {
		t.Fatal("MaxTreeDepth must be positive for a path cover")
	}
}

func TestCoverDeterminism(t *testing.T) {
	g := graph.RandomConnected(50, 110, 31)
	a, b := Build(g, 3, nil), Build(g, 3, nil)
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("cluster counts differ")
	}
	for i := range a.Clusters {
		if a.Clusters[i].Root != b.Clusters[i].Root ||
			len(a.Clusters[i].Members) != len(b.Clusters[i].Members) {
			t.Fatal("covers differ between identical builds")
		}
	}
}
