package graph

import (
	"strings"
	"testing"
)

// naiveGrid3D materializes the 3-D grid through the AddEdge path, emitting
// edges in the same lexicographic order as the implicit builder.
func naiveGrid3D(x, y, z int) *Graph {
	g := New(x * y * z)
	id := func(ix, iy, iz int) NodeID { return NodeID((ix*y+iy)*z + iz) }
	for ix := 0; ix < x; ix++ {
		for iy := 0; iy < y; iy++ {
			for iz := 0; iz < z; iz++ {
				if iz+1 < z {
					g.AddEdge(id(ix, iy, iz), id(ix, iy, iz+1), 0)
				}
				if iy+1 < y {
					g.AddEdge(id(ix, iy, iz), id(ix, iy+1, iz), 0)
				}
				if ix+1 < x {
					g.AddEdge(id(ix, iy, iz), id(ix+1, iy, iz), 0)
				}
			}
		}
	}
	return g.Finalize()
}

// naivePowerLaw materializes the preferential-attachment graph by replaying
// the shared sampling sequence through AddEdge.
func naivePowerLaw(n, m int, seed uint64) *Graph {
	g := New(n)
	powerLawEdges(n, m, seed, func(u, v NodeID) { g.AddEdge(u, v, 0) })
	return g.Finalize()
}

// naiveRingOfCliques materializes the ring of cliques through AddEdge in
// the implicit builder's enumeration order.
func naiveRingOfCliques(k, c int) *Graph {
	n := k * c
	g := New(n)
	for u := 0; u < n; u++ {
		i, pos := u/c, u%c
		for w := u + 1; w < (i+1)*c; w++ {
			g.AddEdge(NodeID(u), NodeID(w), 0)
		}
		if pos == c-1 && i < k-1 {
			g.AddEdge(NodeID(u), NodeID(u+1), 0)
		}
		if u == 0 {
			g.AddEdge(0, NodeID(n-1), 0)
		}
	}
	return g.Finalize()
}

// naiveRandomConnected is the materialized er: generator the implicit one
// replaced: the same draws, a map of seen pairs, and AddEdge per edge.
func naiveRandomConnected(n, m int, seed uint64) *Graph {
	if maxM := n * (n - 1) / 2; m > maxM {
		m = maxM
	}
	r := newRNG(seed)
	g := New(n)
	have := make(map[[2]NodeID]bool, m)
	addIfNew := func(u, v NodeID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if !have[[2]NodeID{u, v}] {
			have[[2]NodeID{u, v}] = true
			g.AddEdge(u, v, 0)
		}
	}
	for i := 1; i < n; i++ {
		addIfNew(NodeID(r.Intn(i)), NodeID(i))
	}
	for g.M() < m {
		addIfNew(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	return g.Finalize()
}

// assertSameCSR checks that two finalized graphs have byte-identical CSR:
// same edge table, same offsets, same adjacency entries (including EdgeID
// and LinkID), and same reverse-link table.
func assertSameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Links() != want.Links() {
		t.Fatalf("size mismatch: got n=%d m=%d links=%d, want n=%d m=%d links=%d",
			got.N(), got.M(), got.Links(), want.N(), want.M(), want.Links())
	}
	for e := range got.edgeU {
		if got.edgeU[e] != want.edgeU[e] || got.edgeV[e] != want.edgeV[e] {
			t.Fatalf("edge %d: got {%d,%d}, want {%d,%d}", e, got.edgeU[e], got.edgeV[e], want.edgeU[e], want.edgeV[e])
		}
	}
	for v := 0; v <= got.N(); v++ {
		if got.off[v] != want.off[v] {
			t.Fatalf("off[%d]: got %d, want %d", v, got.off[v], want.off[v])
		}
	}
	for l := range got.flat {
		if got.flat[l] != want.flat[l] {
			t.Fatalf("flat[%d]: got %+v, want %+v", l, got.flat[l], want.flat[l])
		}
		if got.rev[l] != want.rev[l] {
			t.Fatalf("rev[%d]: got %d, want %d", l, got.rev[l], want.rev[l])
		}
	}
}

func TestGrid3DGolden(t *testing.T) {
	for _, d := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 3, 1}, {1, 1, 4}, {2, 2, 2}, {3, 4, 5}, {5, 1, 4}, {4, 4, 1}} {
		g, err := Grid3D(d[0], d[1], d[2])
		if err != nil {
			t.Fatalf("Grid3D(%v): %v", d, err)
		}
		assertSameCSR(t, g, naiveGrid3D(d[0], d[1], d[2]))
		if !g.Connected() {
			t.Fatalf("Grid3D(%v) disconnected", d)
		}
		if wantD := d[0] + d[1] + d[2] - 3; g.N() > 1 && g.Diameter() != wantD {
			t.Fatalf("Grid3D(%v) diameter %d, want %d", d, g.Diameter(), wantD)
		}
	}
}

func TestPowerLawGolden(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed uint64
	}{{5, 1, 1}, {4, 3, 2}, {30, 2, 7}, {64, 3, 9}, {100, 1, 3}} {
		g, err := PowerLaw(tc.n, tc.m, tc.seed)
		if err != nil {
			t.Fatalf("PowerLaw(%+v): %v", tc, err)
		}
		assertSameCSR(t, g, naivePowerLaw(tc.n, tc.m, tc.seed))
		if !g.Connected() {
			t.Fatalf("PowerLaw(%+v) disconnected", tc)
		}
		wantM := tc.m*(tc.m+1)/2 + (tc.n-tc.m-1)*tc.m
		if g.M() != wantM {
			t.Fatalf("PowerLaw(%+v) m=%d, want %d", tc, g.M(), wantM)
		}
	}
	// Determinism in seed; sensitivity to it.
	a, _ := PowerLaw(50, 2, 11)
	b, _ := PowerLaw(50, 2, 11)
	assertSameCSR(t, a, b)
	c, _ := PowerLaw(50, 2, 12)
	same := true
	for e := range a.edgeU {
		if a.edgeU[e] != c.edgeU[e] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("PowerLaw identical across different seeds")
	}
}

func TestPowerLawIsHeavyTailed(t *testing.T) {
	g, err := PowerLaw(2000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	// Average degree is ~4; preferential attachment must grow hubs far
	// beyond it.
	if max < 30 {
		t.Fatalf("max degree %d; expected a heavy-tailed hub", max)
	}
}

func TestRingOfCliquesGolden(t *testing.T) {
	for _, tc := range [][2]int{{3, 1}, {3, 2}, {4, 3}, {5, 4}, {8, 1}, {3, 6}} {
		g, err := RingOfCliques(tc[0], tc[1])
		if err != nil {
			t.Fatalf("RingOfCliques(%v): %v", tc, err)
		}
		assertSameCSR(t, g, naiveRingOfCliques(tc[0], tc[1]))
		if !g.Connected() {
			t.Fatalf("RingOfCliques(%v) disconnected", tc)
		}
		wantM := tc[0]*tc[1]*(tc[1]-1)/2 + tc[0]
		if g.M() != wantM {
			t.Fatalf("RingOfCliques(%v) m=%d, want %d", tc, g.M(), wantM)
		}
	}
}

// TestRandomConnectedGolden pins the implicit er: generator to the AddEdge
// one it replaced — the benchmark's sync-bfs graph, a request for more edges
// than the complete graph has, a single node, and small sparse and dense
// cases — so no workload's message count can move with it.
func TestRandomConnectedGolden(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed uint64
	}{{200, 2100, 1}, {7, 100, 3}, {1, 0, 5}, {1, 4, 5}, {2, 1, 0}, {30, 29, 9}, {40, 100, 3}, {12, 60, 2}} {
		g := RandomConnected(tc.n, tc.m, tc.seed)
		assertSameCSR(t, g, naiveRandomConnected(tc.n, tc.m, tc.seed))
		if !g.Connected() {
			t.Fatalf("RandomConnected(%+v) disconnected", tc)
		}
		if want := min(tc.m, tc.n*(tc.n-1)/2); g.M() != want {
			t.Fatalf("RandomConnected(%+v) m=%d, want %d", tc, g.M(), want)
		}
	}
}

func TestImplicitOverflowErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*Graph, error)
	}{
		// 1300^3 = 2.197e9 nodes > 2^31-1.
		{"grid3d-nodes", func() (*Graph, error) { return Grid3D(1300, 1300, 1300) }},
		// Node count fits, but 2m links would not fit the int32 LinkID space.
		{"grid3d-links", func() (*Graph, error) { return Grid3D(715827882, 3, 1) }},
		{"pa-nodes", func() (*Graph, error) { return PowerLaw(MaxNodes+1, 1, 1) }},
		{"pa-links", func() (*Graph, error) { return PowerLaw(1<<30, 4, 1) }},
		{"ring-nodes", func() (*Graph, error) { return RingOfCliques(1<<16, 1<<16) }},
		{"ring-links", func() (*Graph, error) { return RingOfCliques(3, 1<<15) }},
	}
	for _, tc := range cases {
		g, err := tc.f()
		if err == nil || g != nil {
			t.Fatalf("%s: expected overflow error, got graph=%v err=%v", tc.name, g, err)
		}
		if !strings.Contains(err.Error(), "32-bit") {
			t.Fatalf("%s: error %q does not name the 32-bit id space", tc.name, err)
		}
	}
	// Bad-parameter (not overflow) errors.
	if _, err := Grid3D(0, 1, 1); err == nil {
		t.Fatal("Grid3D(0,1,1): want error")
	}
	if _, err := PowerLaw(3, 3, 1); err == nil {
		t.Fatal("PowerLaw(3,3,1): want error")
	}
	if _, err := RingOfCliques(2, 3); err == nil {
		t.Fatal("RingOfCliques(2,3): want error")
	}
}

func TestFromSpec(t *testing.T) {
	ok := []struct {
		spec string
		n, m int
	}{
		{"path:5", 5, 4},
		{"cycle:6", 6, 6},
		{"grid:3x4", 12, 17},
		{"grid3d:2x3x4", 24, 46},
		{"star:7", 7, 6},
		{"tree:7", 7, 6},
		{"complete:5", 5, 10},
		{"er:n=10,m=15,seed=3", 10, 15},
		{"er:m=15,n=10", 10, 15},
		{"pa:n=10,m=2,seed=4", 10, 17},
		{"ring:k=4,c=3", 12, 16},
	}
	for _, tc := range ok {
		g, err := FromSpec(tc.spec)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", tc.spec, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Fatalf("FromSpec(%q): n=%d m=%d, want n=%d m=%d", tc.spec, g.N(), g.M(), tc.n, tc.m)
		}
		if !g.Final() {
			t.Fatalf("FromSpec(%q): graph not finalized", tc.spec)
		}
	}
	bad := []string{
		"", "grid3d", "bogus:5", "grid:3", "grid:3x4x5", "grid3d:axbxc",
		"pa:n=10", "pa:m=2", "pa:n=10,m=2,seed=1,extra=9", "ring:k=4",
		"er:n=10,m=15,seed=1,seed=2", "path:x", "grid3d:1300x1300x1300",
		"er:n=10,m=3", "er:n=0,m=0", "er:n=-2,m=5",
		// The classic families' generators panic on these sizes; the spec
		// form must return errors instead.
		"path:-3", "path:0", "cycle:2", "grid:-1x3", "grid:3x0", "path:3000000000",
		"grid:70000x70000", "star:-1", "tree:0", "complete:70000",
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec); err == nil {
			t.Fatalf("FromSpec(%q): want error", spec)
		}
	}
}

// The implicit builders must never read back through the materialized
// adjacency path: a finalized implicit graph answers every query the
// AddEdge path answers.
func TestImplicitGraphQueries(t *testing.T) {
	g, err := Grid3D(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.LinkSrc(g.LinkBetween(13, 14)) != 13 {
		t.Fatal("LinkSrc broken on implicit graph")
	}
	l := g.LinkBetween(4, 13)
	if l < 0 || g.LinkDst(l) != 13 || g.ReverseLink(g.ReverseLink(l)) != l {
		t.Fatal("link queries broken on implicit graph")
	}
	if g.EdgeBetween(0, 26) != -1 || !g.HasEdge(0, 1) {
		t.Fatal("edge queries broken on implicit graph")
	}
	if g.Weighted() || g.Weight(0) != 0 {
		t.Fatal("implicit graphs are unweighted")
	}
}
