package apps_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// boundFor measures the synchronous round count and returns a safe pulse
// bound (the Theorem 5.5 "known T(A)" setting).
func boundFor(g *graph.Graph, mk func(graph.NodeID) syncrun.Handler) (int, syncrun.Result) {
	res := syncrun.New(g, mk).Run()
	return res.Rounds + 2, res
}

// TestCorollary12AsyncBFS: deterministic asynchronous BFS via the
// synchronizer (paper Corollary 1.2).
func TestCorollary12AsyncBFS(t *testing.T) {
	g := graph.Grid(5, 6)
	sources := []graph.NodeID{0}
	mk := func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: sources} }
	bound, _ := boundFor(g, mk)
	for _, adv := range async.StandardAdversaries(g.N(), 31) {
		res := core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
		if bad := apps.CheckBFSOutputs(g, sources, res.Outputs); bad >= 0 {
			t.Fatalf("%s: async BFS wrong at node %d", adv.Name(), bad)
		}
	}
}

// TestCorollary12MultiSource: the multi-source extension with
// closest-source trees (Theorem 4.24's statement).
func TestCorollary12MultiSource(t *testing.T) {
	g := graph.RandomConnected(36, 80, 23)
	sources := []graph.NodeID{1, 17, 30}
	mk := func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: sources} }
	bound, _ := boundFor(g, mk)
	res := core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: async.SeededRandom{Seed: 4}}, mk)
	if bad := apps.CheckBFSOutputs(g, sources, res.Outputs); bad >= 0 {
		t.Fatalf("async multi-source BFS wrong at node %d", bad)
	}
}

// TestCorollary13AsyncLeaderElection: deterministic asynchronous leader
// election (paper Corollary 1.3).
func TestCorollary13AsyncLeaderElection(t *testing.T) {
	g := graph.Grid(4, 5)
	d := g.Diameter()
	layered := cover.BuildLayered(g, d)
	spans := apps.LeaderSpansAll(g, layered)
	mk := func(graph.NodeID) syncrun.Handler {
		return &apps.Leader{Covers: layered, SpansAll: spans}
	}
	bound, syncRes := boundFor(g, mk)
	for _, adv := range async.StandardAdversaries(g.N(), 41) {
		res := core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
		if len(res.Outputs) != g.N() {
			t.Fatalf("%s: %d/%d outputs", adv.Name(), len(res.Outputs), g.N())
		}
		for v := 0; v < g.N(); v++ {
			if res.Outputs[graph.NodeID(v)] != graph.NodeID(0) {
				t.Fatalf("%s: node %d elected %v", adv.Name(), v, res.Outputs[graph.NodeID(v)])
			}
		}
	}
	t.Logf("leader election: T(A)=%d M(A)=%d", syncRes.T, syncRes.M)
}

// TestCorollary14AsyncMST: deterministic asynchronous MST (paper
// Corollary 1.4, with the documented Borůvka substitution for Elkin'20).
func TestCorollary14AsyncMST(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(24, 60, 3), 9)
	tree := cover.BFSTree(g, 0)
	weights := make([]int64, g.M())
	for i := range weights {
		weights[i] = g.Weight(graph.EdgeID(i))
	}
	mk := func(graph.NodeID) syncrun.Handler {
		return &apps.MST{Barrier: tree, Weights: weights}
	}
	bound, _ := boundFor(g, mk)
	wantEdges := make(map[[2]graph.NodeID]bool)
	for _, id := range g.KruskalMST() {
		e := g.Edge(id)
		wantEdges[[2]graph.NodeID{e.U, e.V}] = true
	}
	for _, adv := range async.StandardAdversaries(g.N(), 51) {
		res := core.Synchronize(core.Config{Graph: g, Bound: bound, Adversary: adv}, mk)
		got := make(map[[2]graph.NodeID]bool)
		for v := 0; v < g.N(); v++ {
			out, ok := res.Outputs[graph.NodeID(v)]
			if !ok {
				t.Fatalf("%s: node %d missing MST output", adv.Name(), v)
			}
			if u, p := graph.NodeID(v), out.(apps.MSTResult).Parent; p >= 0 {
				got[[2]graph.NodeID{min(u, p), max(u, p)}] = true
			}
		}
		if len(got) != len(wantEdges) {
			t.Fatalf("%s: MST has %d edges, want %d", adv.Name(), len(got), len(wantEdges))
		}
		for e := range wantEdges {
			if !got[e] {
				t.Fatalf("%s: MST missing %v", adv.Name(), e)
			}
		}
	}
}
