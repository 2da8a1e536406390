package cover

import (
	"math/bits"
	"slices"
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
		cl := c.Clusters[id]
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
	cong := make(map[[2]graph.NodeID]int) // each edge in O(log⁴n) cluster trees
	for _, cl := range c.Clusters {
		checkStoredTree(t, cl)
		for _, v := range cl.Members {
			if _, ok := slices.BinarySearch(cl.Nodes, v); !ok {
				t.Fatalf("cluster %d member %d missing from tree", cl.ID, v)
			}
		}
		for i, child := range cl.Nodes {
			par := cl.Parents[i]
			if par < 0 {
				continue
			}
			if g.EdgeBetween(child, par) < 0 {
				t.Fatalf("tree edge {%d,%d} not in graph", child, par)
			}
			cong[[2]graph.NodeID{min(child, par), max(child, par)}]++
		}
		if cl.Height > bound {
			t.Fatalf("cluster %d tree depth %d > bound %d", cl.ID, cl.Height, bound)
		}
	}
	congBound := logn*logn*logn*logn + 8
	for e, cnt := range cong {
		if cnt > congBound {
			t.Fatalf("edge %v in %d trees (bound %d)", e, cnt, congBound)
		}
	}

	// Refs ⊇ members, and the member flags are exactly the members.
	for v := 0; v < n; v++ {
		var flagged []ClusterID
		for _, r := range c.Refs(graph.NodeID(v)) {
			if r.Member {
				flagged = append(flagged, r.ID)
			}
		}
		if !slices.Equal(flagged, c.MemberOf(graph.NodeID(v))) {
			t.Fatalf("node %d: member refs %v, members %v", v, flagged, c.MemberOf(graph.NodeID(v)))
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
			checkCover(t, tc.g, Build(tc.g, tc.d))
		})
	}
}

// Explicit Definition 2.1 pair condition: any u,v at distance <= d share a
// cluster.
func TestPairCovering(t *testing.T) {
	g := graph.Grid(6, 6)
	c := Build(g, 2)
	for u := 0; u < g.N(); u++ {
		du := g.BFS(graph.NodeID(u))
		for v := u + 1; v < g.N(); v++ {
			if du[v] > 2 {
				continue
			}
			shared := false
			for _, id := range c.MemberOf(graph.NodeID(u)) {
				if c.Clusters[id].Has(graph.NodeID(v)) {
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

func TestLayered(t *testing.T) {
	g := graph.Grid(6, 6)
	l := BuildLayered(g, 8)
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
	l := BuildLayered(graph.Path(8), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range level")
		}
	}()
	l.Level(10)
}

func TestCoverDeterminism(t *testing.T) {
	g := graph.RandomConnected(50, 110, 31)
	a, b := Build(g, 3), Build(g, 3)
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
