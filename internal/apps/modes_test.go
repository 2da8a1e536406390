package apps

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/syncrun"
)

// TestModesByteIdentical is the cross-mode determinism matrix: for every
// algorithm × generator pair, the lockstep runner must produce a Result
// (outputs, T, M, Rounds, trace) byte-identical between Single mode and
// Multi mode with the worker pool forced on (threshold 1, several
// workers). This is the contract that makes the parallel engine safe to
// select automatically.
func TestModesByteIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path40", graph.Path(40)},
		{"cycle33", graph.Cycle(33)},
		{"grid12x12", graph.Grid(12, 12)},
		{"star64", specGraph("star:64")},
		{"tree127", specGraph("tree:127")},
		{"complete40", specGraph("complete:40")},
		{"random150", graph.RandomConnected(150, 400, 5)},
		{"dumbbell", graph.Dumbbell(12, 9)},
		{"lollipop", graph.Lollipop(10, 14)},
	}
	algos := []struct {
		name string
		mk   func(g *graph.Graph) func(graph.NodeID) syncrun.Handler
	}{
		{"flood", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler { return &Flood{Source: 0} }
		}},
		{"echo", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler { return &Echo{Root: 0} }
		}},
		{"bfs", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler { return &BFS{Sources: []graph.NodeID{0}} }
		}},
		{"bfs3src", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			srcs := []graph.NodeID{0, graph.NodeID(g.N() / 2), graph.NodeID(g.N() - 1)}
			return func(graph.NodeID) syncrun.Handler { return &BFS{Sources: srcs} }
		}},
		{"tbfs", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			return func(graph.NodeID) syncrun.Handler {
				return &TBFS{Sources: []graph.NodeID{0}, Threshold: 4}
			}
		}},
		{"leader", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			mk, _ := mkLeader(g)
			return mk
		}},
		{"mst", func(g *graph.Graph) func(graph.NodeID) syncrun.Handler {
			wg := graph.WithRandomWeights(g, 11)
			return mkMST(wg)
		}},
	}
	for _, tg := range graphs {
		for _, ta := range algos {
			t.Run(tg.name+"/"+ta.name, func(t *testing.T) {
				g := tg.g
				if ta.name == "mst" {
					// MST needs distinct weights; run on the weighted copy.
					g = graph.WithRandomWeights(tg.g, 11)
				}
				mk := ta.mk(g)
				single := syncrun.New(g, mk).WithMode(syncrun.ModeSingle).KeepTrace().Run()
				multi := syncrun.New(g, mk).
					WithMode(syncrun.ModeMulti).WithWorkers(4).WithMinParallel(1).
					KeepTrace().Run()
				compareResults(t, single, multi)
			})
		}
	}
}

func compareResults(t *testing.T, single, multi syncrun.Result) {
	t.Helper()
	if single.T != multi.T || single.Rounds != multi.Rounds || single.M != multi.M {
		t.Fatalf("scalars differ: single{T:%d R:%d M:%d} multi{T:%d R:%d M:%d}",
			single.T, single.Rounds, single.M, multi.T, multi.Rounds, multi.M)
	}
	if !reflect.DeepEqual(single.Outputs, multi.Outputs) {
		t.Fatal("outputs differ between Single and Multi modes")
	}
	if len(single.Trace) != len(multi.Trace) {
		t.Fatalf("trace length differs: %d vs %d", len(single.Trace), len(multi.Trace))
	}
	for i := range single.Trace {
		if !reflect.DeepEqual(single.Trace[i], multi.Trace[i]) {
			t.Fatalf("trace[%d] differs: %+v vs %+v", i, single.Trace[i], multi.Trace[i])
		}
	}
}

// TestModeAutoMatchesSingle pins ModeAuto (whatever it selects) to the
// Single-mode result on a graph past the auto-multi threshold.
func TestModeAutoMatchesSingle(t *testing.T) {
	g := graph.RandomConnected(3000, 9000, 3)
	mk := func(graph.NodeID) syncrun.Handler { return &BFS{Sources: []graph.NodeID{0}} }
	single := syncrun.New(g, mk).WithMode(syncrun.ModeSingle).KeepTrace().Run()
	auto := syncrun.New(g, mk).KeepTrace().Run()
	compareResults(t, single, auto)
}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}
