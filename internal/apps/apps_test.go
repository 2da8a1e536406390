package apps

import (
	"fmt"
	"testing"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

func TestFloodOutputsDistances(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(20), graph.Grid(5, 6), graph.RandomConnected(40, 100, 3)} {
		res := syncrun.New(g, func(graph.NodeID) syncrun.Handler { return &Flood{Source: 0} }).Run()
		want := g.BFS(0)
		for v := 0; v < g.N(); v++ {
			if res.Outputs[graph.NodeID(v)] != want[v] {
				t.Fatalf("node %d: %v, want %d", v, res.Outputs[graph.NodeID(v)], want[v])
			}
		}
		if res.M != uint64(2*g.M()) {
			t.Errorf("flood M = %d, want 2m = %d", res.M, 2*g.M())
		}
	}
}

func TestEchoCountsNodes(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(15), graph.Grid(4, 5), specGraph("tree:31")} {
		res := syncrun.New(g, func(graph.NodeID) syncrun.Handler { return &Echo{Root: 0} }).Run()
		if res.Outputs[0] != g.N() {
			t.Fatalf("echo root counted %v, want %d", res.Outputs[0], g.N())
		}
		total := 0
		for v := 0; v < g.N(); v++ {
			if res.Outputs[graph.NodeID(v)] == nil {
				t.Fatalf("node %d has no output", v)
			}
			total += res.Outputs[graph.NodeID(v)].(int)
		}
		// Sum of subtree sizes = sum over nodes of their depth+1 <= n^2;
		// just sanity-check every node participated.
	}
}

func TestBFSSingleSource(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(25), graph.Grid(6, 6), graph.RandomConnected(50, 120, 7)} {
		res := syncrun.New(g, func(graph.NodeID) syncrun.Handler { return &BFS{Sources: []graph.NodeID{0}} }).Run()
		if bad := CheckBFSOutputs(g, []graph.NodeID{0}, res.Outputs); bad >= 0 {
			t.Fatalf("BFS wrong at node %d", bad)
		}
		if res.T != g.Ecc(0) {
			t.Errorf("T = %d, want %d", res.T, g.Ecc(0))
		}
		if res.M != uint64(2*g.M()) {
			t.Errorf("M = %d, want %d", res.M, 2*g.M())
		}
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := graph.Grid(7, 7)
	sources := []graph.NodeID{0, 48, 24}
	res := syncrun.New(g, func(graph.NodeID) syncrun.Handler { return &BFS{Sources: sources} }).Run()
	if bad := CheckBFSOutputs(g, sources, res.Outputs); bad >= 0 {
		t.Fatalf("multi-source BFS wrong at node %d", bad)
	}
	if res.T != g.BallRadius(sources) {
		t.Errorf("T = %d, want D1 = %d", res.T, g.BallRadius(sources))
	}
}

func mkLeader(g *graph.Graph) (func(graph.NodeID) syncrun.Handler, *cover.Layered) {
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	layered := cover.BuildLayered(g, d)
	spans := LeaderSpansAll(g, layered)
	return func(graph.NodeID) syncrun.Handler {
		return &Leader{Covers: layered, SpansAll: spans}
	}, layered
}

// TestTBFSIsolatedSource: a source with no neighbors has nothing to wait
// for, so its echo completes in Init and it outputs its verdict.
func TestTBFSIsolatedSource(t *testing.T) {
	done := false
	res := syncrun.New(graph.Path(1), func(graph.NodeID) syncrun.Handler {
		return &TBFS{Sources: []graph.NodeID{0}, Threshold: 1, OnSourceDone: func(bool) { done = true }}
	}).Run()
	if got := res.Outputs[0]; got != (TBFSSourceDone{}) || !done {
		t.Fatalf("isolated source output %#v, echo callback %v; want TBFSSourceDone{} and true", got, done)
	}
}

func TestLeaderElectsGlobalMin(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(20),
		graph.Cycle(17),
		graph.Grid(5, 5),
		graph.RandomConnected(40, 90, 13),
		specGraph("star:12"),
	} {
		mk, _ := mkLeader(g)
		res := syncrun.New(g, mk).Run()
		if len(res.Outputs) != g.N() {
			t.Fatalf("only %d/%d nodes output a leader", len(res.Outputs), g.N())
		}
		for v := 0; v < g.N(); v++ {
			if res.Outputs[graph.NodeID(v)] != graph.NodeID(0) {
				t.Fatalf("node %d elected %v, want 0", v, res.Outputs[graph.NodeID(v)])
			}
		}
	}
}

func TestLeaderComplexityShape(t *testing.T) {
	// M(A) should stay Õ(m): check it doesn't explode relative to m.
	g := graph.RandomConnected(60, 150, 21)
	mk, _ := mkLeader(g)
	res := syncrun.New(g, mk).Run()
	if res.M > uint64(200*g.M()) {
		t.Fatalf("leader election used %d messages on m=%d", res.M, g.M())
	}
}

func mkMST(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
	tree := cover.BFSTree(g, 0)
	weights := make([]int64, g.M())
	for i := range weights {
		weights[i] = g.Weight(graph.EdgeID(i))
	}
	return func(graph.NodeID) syncrun.Handler {
		return &MST{Barrier: tree, Weights: weights}
	}
}

// checkMST verifies outputs against Kruskal.
func checkMST(t *testing.T, g *graph.Graph, outputs map[graph.NodeID]any) {
	t.Helper()
	want := make(map[[2]graph.NodeID]bool)
	for _, id := range g.KruskalMST() {
		want[[2]graph.NodeID{g.EdgeU(id), g.EdgeV(id)}] = true
	}
	var leader graph.NodeID = -1
	got := make(map[[2]graph.NodeID]bool)
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[graph.NodeID(v)]
		if !ok {
			t.Fatalf("node %d has no MST output", v)
		}
		res := out.(MSTResult)
		if res.Parent < 0 {
			if leader >= 0 {
				t.Fatalf("two leaders: %d and %d", leader, v)
			}
			leader = graph.NodeID(v)
		}
		if u := graph.NodeID(v); res.Parent >= 0 {
			got[[2]graph.NodeID{min(u, res.Parent), max(u, res.Parent)}] = true
		}
	}
	if leader < 0 {
		t.Fatal("no leader in MST outputs")
	}
	if len(got) != len(want) {
		t.Fatalf("MST has %d edges, want %d", len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("MST missing edge %v", e)
		}
	}
}

func TestMSTMatchesKruskal(t *testing.T) {
	cases := []*graph.Graph{
		graph.WithRandomWeights(graph.Path(12), 1),
		graph.WithRandomWeights(graph.Cycle(10), 2),
		graph.WithRandomWeights(graph.Grid(4, 5), 3),
		graph.WithRandomWeights(specGraph("complete:8"), 4),
		graph.WithRandomWeights(graph.RandomConnected(30, 80, 5), 6),
		graph.WithRandomWeights(graph.Dumbbell(5, 4), 7),
	}
	for i, g := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			res := syncrun.New(g, mkMST(g)).Run()
			checkMST(t, g, res.Outputs)
		})
	}
}

func TestMSTSeedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := graph.WithRandomWeights(graph.RandomConnected(25, 60, seed), seed*31)
		res := syncrun.New(g, mkMST(g)).Run()
		checkMST(t, g, res.Outputs)
	}
}

func TestMSTMessageShape(t *testing.T) {
	// Õ(m): messages should scale like m·log n, not m·n.
	g := graph.WithRandomWeights(graph.RandomConnected(50, 200, 9), 17)
	res := syncrun.New(g, mkMST(g)).Run()
	if res.M > uint64(60*g.M()) {
		t.Fatalf("MST used %d messages on m=%d", res.M, g.M())
	}
}
