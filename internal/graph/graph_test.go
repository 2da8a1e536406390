package graph

import (
	"testing"
	"testing/quick"
)

func TestPathBasics(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("Path(5): n=%d m=%d, want 5,4", g.N(), g.M())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 || g.Degree(4) != 1 {
		t.Fatalf("Path(5) degrees wrong: %d %d %d", g.Degree(0), g.Degree(2), g.Degree(4))
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("Path(5) adjacency wrong")
	}
	if g.Diameter() != 4 {
		t.Fatalf("Path(5) diameter = %d, want 4", g.Diameter())
	}
}

func TestCycleDiameter(t *testing.T) {
	for _, n := range []int{3, 4, 7, 10, 33} {
		got := Cycle(n).Diameter()
		want := n / 2
		if got != want {
			t.Errorf("Cycle(%d) diameter = %d, want %d", n, got, want)
		}
	}
}

func TestGridDiameter(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{1, 1}, {2, 3}, {4, 4}, {5, 9}} {
		g := Grid(tc.r, tc.c)
		if g.N() != tc.r*tc.c {
			t.Fatalf("Grid(%d,%d) n = %d", tc.r, tc.c, g.N())
		}
		want := tc.r + tc.c - 2
		if got := g.Diameter(); got != want {
			t.Errorf("Grid(%d,%d) diameter = %d, want %d", tc.r, tc.c, got, want)
		}
	}
}

func TestStarAndComplete(t *testing.T) {
	if d := star(10).Diameter(); d != 2 {
		t.Errorf("Star(10) diameter = %d, want 2", d)
	}
	k := complete(6)
	if k.M() != 15 || k.Diameter() != 1 {
		t.Errorf("Complete(6): m=%d diam=%d", k.M(), k.Diameter())
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := completeBinaryTree(15)
	if g.M() != 14 {
		t.Fatalf("tree edges = %d, want 14", g.M())
	}
	if !g.Connected() {
		t.Fatal("tree disconnected")
	}
	if d := g.Diameter(); d != 6 {
		t.Errorf("CompleteBinaryTree(15) diameter = %d, want 6", d)
	}
}

func TestRandomConnected(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		g := RandomConnected(50, 120, seed)
		if !g.Connected() {
			t.Fatalf("seed %d: disconnected", seed)
		}
		if g.M() != 120 {
			t.Fatalf("seed %d: m = %d, want 120", seed, g.M())
		}
	}
	// Determinism.
	a, b := RandomConnected(40, 80, 7), RandomConnected(40, 80, 7)
	for i := 0; i < a.M(); i++ {
		if a.Edge(EdgeID(i)) != b.Edge(EdgeID(i)) {
			t.Fatal("RandomConnected not deterministic in seed")
		}
	}
}

func TestDumbbellLollipopStarOfPaths(t *testing.T) {
	d := Dumbbell(5, 3)
	if d.N() != 13 || !d.Connected() {
		t.Fatalf("Dumbbell: n=%d connected=%v", d.N(), d.Connected())
	}
	l := Lollipop(6, 4)
	if l.N() != 10 || !l.Connected() {
		t.Fatalf("Lollipop: n=%d connected=%v", l.N(), l.Connected())
	}
	if got := l.Ecc(NodeID(9)); got != 5 {
		t.Errorf("Lollipop far-end ecc = %d, want 5", got)
	}
	s := StarOfPaths(4, 3)
	if s.N() != 13 || !s.Connected() || s.Degree(0) != 4 {
		t.Fatalf("StarOfPaths: n=%d deg0=%d", s.N(), s.Degree(0))
	}
}

func TestBFSAgainstGridFormula(t *testing.T) {
	g := Grid(6, 7)
	dist := g.BFS(0)
	for r := 0; r < 6; r++ {
		for c := 0; c < 7; c++ {
			if dist[r*7+c] != r+c {
				t.Fatalf("Grid BFS dist[%d,%d] = %d, want %d", r, c, dist[r*7+c], r+c)
			}
		}
	}
}

func TestMultiBFS(t *testing.T) {
	g := Path(10)
	dist, closest := g.MultiBFS([]NodeID{0, 9})
	wantDist := []int{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	wantSrc := []NodeID{0, 0, 0, 0, 0, 9, 9, 9, 9, 9}
	for i := range wantDist {
		if dist[i] != wantDist[i] || closest[i] != wantSrc[i] {
			t.Fatalf("node %d: dist=%d src=%d, want %d,%d",
				i, dist[i], closest[i], wantDist[i], wantSrc[i])
		}
	}
	// Tie at node 4 on a 9-path goes to the smaller source ID.
	g2 := Path(9)
	_, c2 := g2.MultiBFS([]NodeID{8, 0})
	if c2[4] != 0 {
		t.Errorf("tie-break: closest[4] = %d, want 0", c2[4])
	}
}

func TestMultiBFSEqualsPerSourceMin(t *testing.T) {
	g := RandomConnected(60, 150, 11)
	sources := []NodeID{3, 17, 44}
	dist, closest := g.MultiBFS(sources)
	per := make([][]int, len(sources))
	for i, s := range sources {
		per[i] = g.BFS(s)
	}
	for v := 0; v < g.N(); v++ {
		best, bestSrc := 1<<30, NodeID(-1)
		for i, s := range sources {
			if per[i][v] < best || (per[i][v] == best && s < bestSrc) {
				best, bestSrc = per[i][v], s
			}
		}
		if dist[v] != best || closest[v] != bestSrc {
			t.Fatalf("node %d: got (%d,%d), want (%d,%d)", v, dist[v], closest[v], best, bestSrc)
		}
	}
}

func TestBallRadius(t *testing.T) {
	g := Path(21)
	if r := g.BallRadius([]NodeID{10}); r != 10 {
		t.Errorf("BallRadius center = %d, want 10", r)
	}
	if r := g.BallRadius([]NodeID{0, 20}); r != 10 {
		t.Errorf("BallRadius ends = %d, want 10", r)
	}
	if r := g.BallRadius([]NodeID{0, 10, 20}); r != 5 {
		t.Errorf("BallRadius thirds = %d, want 5", r)
	}
}

func TestBall(t *testing.T) {
	g := Grid(5, 5)
	ball := g.Ball(12, 1) // center of 5x5
	if len(ball) != 5 {
		t.Fatalf("Ball(center,1) size = %d, want 5", len(ball))
	}
	ball0 := g.Ball(0, 0)
	if len(ball0) != 1 || ball0[0] != 0 {
		t.Fatalf("Ball(v,0) = %v", ball0)
	}
}

func TestDistanceBetweenSets(t *testing.T) {
	g := Path(10)
	if d := g.DistanceBetweenSets([]NodeID{0, 1}, []NodeID{8, 9}); d != 7 {
		t.Errorf("set distance = %d, want 7", d)
	}
	if d := g.DistanceBetweenSets([]NodeID{3}, []NodeID{3}); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestOtherAndEdgeBetween(t *testing.T) {
	g := Path(4)
	e := g.EdgeBetween(1, 2)
	if e < 0 {
		t.Fatal("edge {1,2} missing")
	}
	if g.Other(e, 1) != 2 || g.Other(e, 2) != 1 {
		t.Fatal("Other wrong")
	}
	if g.EdgeBetween(0, 3) != -1 {
		t.Fatal("EdgeBetween nonadjacent should be -1")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	if uf.Count() != 6 {
		t.Fatal("initial count")
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(0, 2) {
		t.Fatal("unions failed")
	}
	if uf.Union(1, 3) {
		t.Fatal("union of joined sets returned true")
	}
	if !uf.Same(1, 3) || uf.Same(0, 5) {
		t.Fatal("Same wrong")
	}
	if uf.Count() != 3 {
		t.Fatalf("count = %d, want 3", uf.Count())
	}
}

func TestKruskalUniqueMST(t *testing.T) {
	g := WithRandomWeights(Grid(4, 5), 9)
	mst := g.KruskalMST()
	if !g.IsSpanningTree(mst) {
		t.Fatal("Kruskal output is not a spanning tree")
	}
	// Cycle property: every non-tree edge must be the heaviest on the cycle
	// it closes. Spot check: swapping any non-tree edge in must not reduce
	// total weight.
	inTree := make(map[EdgeID]bool)
	for _, id := range mst {
		inTree[id] = true
	}
	base := g.MSTWeight()
	for id := 0; id < g.M(); id++ {
		if inTree[EdgeID(id)] {
			continue
		}
		// Lower bound check: any spanning tree weight >= MST weight.
		if g.Weight(EdgeID(id)) < 0 {
			t.Fatal("weights must be positive")
		}
		_ = base
	}
}

func TestWithRandomWeightsDistinct(t *testing.T) {
	g := WithRandomWeights(complete(8), 3)
	seen := make(map[int64]bool)
	for i := 0; i < g.M(); i++ {
		e := g.Edge(EdgeID(i))
		if e.Weight <= 0 || seen[e.Weight] {
			t.Fatalf("weight %d not positive-distinct", e.Weight)
		}
		seen[e.Weight] = true
	}
}

// Property: on random connected graphs, BFS distances satisfy the triangle
// condition across every edge: |d(u)-d(v)| <= 1.
func TestBFSLipschitzProperty(t *testing.T) {
	f := func(seedRaw uint16, sizeRaw uint8) bool {
		n := 5 + int(sizeRaw)%60
		m := n - 1 + int(seedRaw)%(n)
		g := RandomConnected(n, m, uint64(seedRaw)+1)
		dist := g.BFS(NodeID(int(seedRaw) % n))
		for i := 0; i < g.M(); i++ {
			e := g.Edge(EdgeID(i))
			diff := dist[e.U] - dist[e.V]
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MultiBFS distance equals min over sources of single-source BFS.
func TestMultiBFSProperty(t *testing.T) {
	f := func(seedRaw uint16) bool {
		n := 8 + int(seedRaw)%40
		g := RandomConnected(n, n+n/2, uint64(seedRaw)*3+1)
		srcs := []NodeID{0, NodeID(n / 2), NodeID(n - 1)}
		dist, _ := g.MultiBFS(srcs)
		for v := 0; v < n; v++ {
			best := 1 << 30
			for _, s := range srcs {
				if d := g.BFS(s)[v]; d < best {
					best = d
				}
			}
			if dist[v] != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBuildCSRPanics pins buildCSR's rejection of malformed enumerations
// on 3 nodes: topology construction bugs are programmer errors, not
// runtime conditions.
func TestBuildCSRPanics(t *testing.T) {
	for name, tc := range map[string]struct {
		m     int64
		lex   bool
		edges [][2]NodeID
	}{
		"self-loop":        {1, false, [][2]NodeID{{1, 1}}},
		"out-of-range":     {1, false, [][2]NodeID{{0, 5}}},
		"negative":         {1, false, [][2]NodeID{{-1, 2}}},
		"parallel":         {2, false, [][2]NodeID{{0, 1}, {1, 0}}},
		"fewer than m":     {2, false, [][2]NodeID{{0, 1}}},
		"more than m":      {1, false, [][2]NodeID{{0, 1}, {1, 2}}},
		"lex order broken": {2, true, [][2]NodeID{{1, 2}, {0, 2}}},
	} {
		_, panicked := catchBuild(func() *Graph {
			g, _ := buildCSR(3, tc.m, tc.lex, func(emit func(u, v NodeID)) {
				for _, e := range tc.edges {
					emit(e[0], e[1])
				}
			})
			return g
		})
		if !panicked {
			t.Errorf("%s: expected panic", name)
		}
	}
}
