package graph

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// naiveGraph is the golden tests' reference builder, sharing no code with
// buildCSR: per-node adjacency lists grown by AddEdge, a map-based
// parallel-edge check, a sort.Slice per row and linear-scan reverse-link
// and edge-link tables at Finalize. It keeps its own endpoint columns u, v
// so assertSameCSR can check the graph's derived edge accessors against
// them.
type naiveGraph struct {
	n    int
	u, v []NodeID
	w    []int64
	adj  [][]Neighbor
	g    *Graph // set by Finalize
}

func newNaive(n int) *naiveGraph {
	if n < 0 {
		panic(fmt.Sprintf("naive: negative node count %d", n))
	}
	return &naiveGraph{n: n, adj: make([][]Neighbor, n)}
}

func (b *naiveGraph) M() int { return len(b.u) }

// AddEdge appends the edge {u, v} with weight w. Self-loops and
// out-of-range endpoints panic; parallel edges panic at Finalize.
func (b *naiveGraph) AddEdge(u, v NodeID, w int64) {
	if u == v {
		panic(fmt.Sprintf("naive: self-loop at node %d", u))
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("naive: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u > v {
		u, v = v, u
	}
	id := EdgeID(len(b.u))
	b.u, b.v, b.w = append(b.u, u), append(b.v, v), append(b.w, w)
	b.adj[u] = append(b.adj[u], Neighbor{Node: v, Edge: id})
	b.adj[v] = append(b.adj[v], Neighbor{Node: u, Edge: id})
}

// Finalize flattens the sorted rows into b.g and returns b.
func (b *naiveGraph) Finalize() *naiveGraph {
	seen := make(map[[2]NodeID]bool, len(b.u))
	for e := range b.u {
		key := [2]NodeID{b.u[e], b.v[e]}
		if seen[key] {
			panic(fmt.Sprintf("naive: parallel edge %v", key))
		}
		seen[key] = true
	}
	g := &Graph{n: b.n, off: make([]int32, b.n+1)}
	for _, w := range b.w {
		if w != 0 {
			g.weights = b.w
			break
		}
	}
	for v, row := range b.adj {
		sort.Slice(row, func(i, j int) bool { return row[i].Node < row[j].Node })
		g.off[v] = int32(len(g.flat))
		g.flat = append(g.flat, row...)
	}
	g.off[b.n] = int32(len(g.flat))
	// link returns the position of u→v in the flat rows by linear scan.
	link := func(u, v NodeID) LinkID {
		for l := g.off[u]; l < g.off[u+1]; l++ {
			if g.flat[l].Node == v {
				return LinkID(l)
			}
		}
		panic(fmt.Sprintf("naive: no link %d→%d", u, v))
	}
	g.rev = make([]LinkID, len(g.flat))
	for v := 0; v < b.n; v++ {
		for l := g.off[v]; l < g.off[v+1]; l++ {
			g.rev[l] = link(g.flat[l].Node, NodeID(v))
		}
	}
	g.edgeLink = make([]LinkID, len(b.u))
	for e := range b.u {
		g.edgeLink[e] = link(b.u[e], b.v[e])
	}
	b.g = g
	return b
}

// naive materializes n nodes and the unweighted edges add enumerates.
func naive(n int, edges func(add func(u, v int))) *naiveGraph {
	b := newNaive(n)
	edges(func(u, v int) { b.AddEdge(NodeID(u), NodeID(v), 0) })
	return b.Finalize()
}

// naiveGrid3D materializes the 3-D grid through the AddEdge path, emitting
// edges in the same lexicographic order as the implicit builder.
func naiveGrid3D(x, y, z int) *naiveGraph {
	g := newNaive(x * y * z)
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
func naivePowerLaw(n, m int, seed uint64) *naiveGraph {
	g := newNaive(n)
	powerLawEdges(n, m, seed, func(u, v NodeID) { g.AddEdge(u, v, 0) })
	return g.Finalize()
}

// naiveRingOfCliques materializes the ring of cliques through AddEdge in
// the implicit builder's enumeration order.
func naiveRingOfCliques(k, c int) *naiveGraph {
	n := k * c
	g := newNaive(n)
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
func naiveRandomConnected(n, m int, seed uint64) *naiveGraph {
	if maxM := n * (n - 1) / 2; m > maxM {
		m = maxM
	}
	r := newRNG(seed)
	g := newNaive(n)
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

// assertSameCSR checks that got has the naive builder's CSR byte for byte
// (same offsets, adjacency entries, reverse-link and edge-link tables),
// and that got's edge and link accessors agree with the naive builder's
// own endpoint and weight columns.
func assertSameCSR(t *testing.T, got *Graph, want *naiveGraph) {
	t.Helper()
	w := want.g
	if got.N() != w.N() || got.M() != want.M() || got.Links() != w.Links() {
		t.Fatalf("size mismatch: got n=%d m=%d links=%d, want n=%d m=%d links=%d",
			got.N(), got.M(), got.Links(), w.N(), want.M(), w.Links())
	}
	if got.Weighted() != w.Weighted() {
		t.Fatalf("weighted: got %v, want %v", got.Weighted(), w.Weighted())
	}
	for e := range want.u {
		id, u, v := EdgeID(e), want.u[e], want.v[e]
		if got.edgeLink[e] != w.edgeLink[e] {
			t.Fatalf("edgeLink[%d]: got %d, want %d", e, got.edgeLink[e], w.edgeLink[e])
		}
		if got.EdgeU(id) != u || got.EdgeV(id) != v {
			t.Fatalf("edge %d: EdgeU/EdgeV = %d/%d, want %d/%d", e, got.EdgeU(id), got.EdgeV(id), u, v)
		}
		if wantE := (Edge{U: u, V: v, Weight: want.w[e]}); got.Edge(id) != wantE {
			t.Fatalf("edge %d: got %+v, want %+v", e, got.Edge(id), wantE)
		}
		if got.Other(id, u) != v || got.Other(id, v) != u {
			t.Fatalf("edge %d {%d,%d}: Other = %d, %d", e, u, v, got.Other(id, u), got.Other(id, v))
		}
		if got.EdgeBetween(u, v) != id || got.EdgeBetween(v, u) != id {
			t.Fatalf("edge %d {%d,%d}: EdgeBetween = %d, %d", e, u, v, got.EdgeBetween(u, v), got.EdgeBetween(v, u))
		}
	}
	for v := 0; v <= got.N(); v++ {
		if got.off[v] != w.off[v] {
			t.Fatalf("off[%d]: got %d, want %d", v, got.off[v], w.off[v])
		}
	}
	for l := range got.flat {
		if got.flat[l] != w.flat[l] {
			t.Fatalf("flat[%d]: got %+v, want %+v", l, got.flat[l], w.flat[l])
		}
		if got.rev[l] != w.rev[l] {
			t.Fatalf("rev[%d]: got %d, want %d", l, got.rev[l], w.rev[l])
		}
		r := got.ReverseLink(LinkID(l))
		if got.ReverseLink(r) != LinkID(l) || got.LinkSrc(r) != got.LinkDst(LinkID(l)) {
			t.Fatalf("link %d: reverse %d has reverse %d and source %d, want %d and %d",
				l, r, got.ReverseLink(r), got.LinkSrc(r), l, got.LinkDst(LinkID(l)))
		}
	}
}

func TestGrid3DGolden(t *testing.T) {
	for _, d := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 3, 1}, {1, 1, 4}, {2, 2, 2}, {3, 4, 5}, {5, 1, 4}, {4, 4, 1}} {
		g, err := grid3D(d[0], d[1], d[2])
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
		g, err := powerLaw(tc.n, tc.m, tc.seed)
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
	a, _ := powerLaw(50, 2, 11)
	b, _ := powerLaw(50, 2, 11)
	assertSameCSR(t, a, naivePowerLaw(50, 2, 11))
	assertSameCSR(t, b, naivePowerLaw(50, 2, 11))
	c, _ := powerLaw(50, 2, 12)
	same := true
	for e := 0; e < a.M(); e++ {
		if a.EdgeU(EdgeID(e)) != c.EdgeU(EdgeID(e)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("PowerLaw identical across different seeds")
	}
}

func TestPowerLawIsHeavyTailed(t *testing.T) {
	g, err := powerLaw(2000, 2, 5)
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
		g, err := ringOfCliques(tc[0], tc[1])
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
		{"grid3d-nodes", func() (*Graph, error) { return grid3D(1300, 1300, 1300) }},
		// Node count fits, but 2m links would not fit the int32 LinkID space.
		{"grid3d-links", func() (*Graph, error) { return grid3D(715827882, 3, 1) }},
		{"pa-nodes", func() (*Graph, error) { return powerLaw(maxNodes+1, 1, 1) }},
		{"pa-links", func() (*Graph, error) { return powerLaw(1<<30, 4, 1) }},
		{"ring-nodes", func() (*Graph, error) { return ringOfCliques(1<<16, 1<<16) }},
		{"ring-links", func() (*Graph, error) { return ringOfCliques(3, 1<<15) }},
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
	if _, err := grid3D(0, 1, 1); err == nil {
		t.Fatal("Grid3D(0,1,1): want error")
	}
	if _, err := powerLaw(3, 3, 1); err == nil {
		t.Fatal("PowerLaw(3,3,1): want error")
	}
	if _, err := ringOfCliques(2, 3); err == nil {
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

// A graph from an implicit generator answers every link and edge query.
func TestImplicitGraphQueries(t *testing.T) {
	g, err := grid3D(3, 3, 3)
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

// TestClassicGolden pins every classic generator's CSR against the same
// edge enumeration replayed through the naive builder.
func TestClassicGolden(t *testing.T) {
	check := func(name string, got *Graph, n int, edges func(add func(u, v int))) {
		t.Run(name, func(t *testing.T) { assertSameCSR(t, got, naive(n, edges)) })
	}
	for _, n := range []int{0, 1, 2, 7} {
		check(fmt.Sprintf("path:%d", n), Path(n), n, func(add func(u, v int)) {
			for i := 0; i+1 < n; i++ {
				add(i, i+1)
			}
		})
	}
	for _, n := range []int{3, 4, 9} {
		check(fmt.Sprintf("cycle:%d", n), Cycle(n), n, func(add func(u, v int)) {
			for i := 0; i < n; i++ {
				add(i, (i+1)%n)
			}
		})
	}
	for _, d := range [][2]int{{1, 1}, {1, 5}, {4, 1}, {3, 4}, {40, 40}} {
		rows, cols := d[0], d[1]
		check(fmt.Sprintf("grid:%dx%d", rows, cols), Grid(rows, cols), rows*cols, func(add func(u, v int)) {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if c+1 < cols {
						add(r*cols+c, r*cols+c+1)
					}
					if r+1 < rows {
						add(r*cols+c, (r+1)*cols+c)
					}
				}
			}
		})
	}
	for _, n := range []int{1, 2, 9} {
		check(fmt.Sprintf("star:%d", n), star(n), n, func(add func(u, v int)) {
			for i := 1; i < n; i++ {
				add(0, i)
			}
		})
	}
	for _, n := range []int{1, 2, 3, 15, 20} {
		check(fmt.Sprintf("tree:%d", n), completeBinaryTree(n), n, func(add func(u, v int)) {
			for i := 0; i < n; i++ {
				if l := 2*i + 1; l < n {
					add(i, l)
				}
				if r := 2*i + 2; r < n {
					add(i, r)
				}
			}
		})
	}
	for _, n := range []int{1, 2, 6, 60} {
		check(fmt.Sprintf("complete:%d", n), complete(n), n, func(add func(u, v int)) {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					add(i, j)
				}
			}
		})
	}
	for _, d := range [][2]int{{1, 0}, {3, 0}, {4, 3}, {5, 3}} {
		k, p := d[0], d[1]
		check(fmt.Sprintf("dumbbell:%d,%d", k, p), Dumbbell(k, p), 2*k+p, func(add func(u, v int)) {
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					add(i, j)
					add(k+p+i, k+p+j)
				}
			}
			prev := 0
			for i := 0; i < p; i++ {
				add(prev, k+i)
				prev = k + i
			}
			add(prev, k+p)
		})
	}
	for _, d := range [][2]int{{1, 0}, {5, 0}, {4, 3}, {6, 4}} {
		k, p := d[0], d[1]
		check(fmt.Sprintf("lollipop:%d,%d", k, p), Lollipop(k, p), k+p, func(add func(u, v int)) {
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					add(i, j)
				}
			}
			prev := 0
			for i := 0; i < p; i++ {
				add(prev, k+i)
				prev = k + i
			}
		})
	}
	for _, d := range [][2]int{{0, 3}, {1, 1}, {4, 3}, {3, 5}} {
		deg, p := d[0], d[1]
		check(fmt.Sprintf("starofpaths:%d,%d", deg, p), StarOfPaths(deg, p), 1+deg*p, func(add func(u, v int)) {
			for s := 0; s < deg; s++ {
				prev := 0
				for i := 0; i < p; i++ {
					add(prev, 1+s*p+i)
					prev = 1 + s*p + i
				}
			}
		})
	}
}

// TestWithRandomWeightsGolden pins the shared-array copy against a full
// rebuild: the seed's permutation of 1..m as weights, replayed through the
// naive builder in edge order. The source graph keeps its zero weights.
func TestWithRandomWeightsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		seed uint64
	}{
		{"grid:4x5", Grid(4, 5), 9},
		{"complete:8", complete(8), 3},
		{"er:n=200,m=2100", RandomConnected(200, 2100, 1), 5},
		{"path:2", Path(2), 1},
		{"path:1", Path(1), 7},
	} {
		r := newRNG(tc.seed)
		perm := make([]int64, tc.g.M())
		for i := range perm {
			perm[i] = int64(i + 1)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		b := newNaive(tc.g.N())
		for e, w := range perm {
			b.AddEdge(tc.g.EdgeU(EdgeID(e)), tc.g.EdgeV(EdgeID(e)), w)
		}
		got := WithRandomWeights(tc.g, tc.seed)
		assertSameCSR(t, got, b.Finalize())
		if tc.g.Weighted() {
			t.Fatalf("%s: WithRandomWeights wrote the source graph's weights", tc.name)
		}
	}
}

// catchBuild runs build and reports whether it panicked.
func catchBuild[T any](build func() T) (g T, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return build(), false
}

// FuzzBuildCSRVsNaive feeds one edge list to buildCSR and to the naive
// builder. Byte 0 picks n < 16; each following byte pair is an edge whose
// endpoints may be n itself or -1 (byte 0xFF), so self-loops, repeats and
// out-of-range endpoints all occur. Both builders must produce the same
// CSR or both must panic. A strictly lexicographic list of u < v pairs
// also goes through buildCSR's lex path.
func FuzzBuildCSRVsNaive(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{4, 0, 1, 3, 2, 0, 3, 1, 3, 2, 0})
	f.Add([]byte{3, 0, 1, 1, 0})
	f.Add([]byte{3, 1, 1})
	f.Add([]byte{3, 0, 3})
	f.Add([]byte{3, 0xFF, 2})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 16)
		node := func(b byte) NodeID {
			if b == 0xFF {
				return -1
			}
			return NodeID(int(b) % (n + 1))
		}
		var edges [][2]NodeID
		lex := true
		for i := 1; i+1 < len(data); i += 2 {
			e := [2]NodeID{node(data[i]), node(data[i+1])}
			if k := len(edges); e[0] >= e[1] || k > 0 && (e[0] < edges[k-1][0] || e[0] == edges[k-1][0] && e[1] <= edges[k-1][1]) {
				lex = false
			}
			edges = append(edges, e)
		}
		want, wantPanic := catchBuild(func() *naiveGraph {
			b := newNaive(n)
			for _, e := range edges {
				b.AddEdge(e[0], e[1], 0)
			}
			return b.Finalize()
		})
		for _, l := range []bool{false, lex} {
			got, gotPanic := catchBuild(func() *Graph {
				g, err := buildCSR(int64(n), int64(len(edges)), l, func(emit func(u, v NodeID)) {
					for _, e := range edges {
						emit(e[0], e[1])
					}
				})
				if err != nil {
					panic(err)
				}
				return g
			})
			if gotPanic != wantPanic {
				t.Fatalf("n=%d edges=%v lex=%v: buildCSR panicked=%v, naive panicked=%v", n, edges, l, gotPanic, wantPanic)
			}
			if !gotPanic {
				assertSameCSR(t, got, want)
			}
		}
	})
}
