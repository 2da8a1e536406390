package abfs

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/graph"
)

// checkThresholded validates Definition 4.2 semantics on the outputs.
func checkThresholded(t *testing.T, g *graph.Graph, sources []graph.NodeID, tau int, res result) {
	t.Helper()
	dist, _ := g.MultiBFS(sources)
	isSource := map[graph.NodeID]bool{}
	for _, s := range sources {
		isSource[s] = true
	}
	for v := 0; v < g.N(); v++ {
		id := graph.NodeID(v)
		out, ok := res.Outputs[id]
		if !ok {
			t.Fatalf("node %d has no output (dist=%d tau=%d)", v, dist[v], tau)
		}
		switch o := out.(type) {
		case apps.TBFSResult:
			if dist[v] > tau {
				t.Fatalf("node %d reached at dist %d but true dist %d > tau %d", v, o.Dist, dist[v], tau)
			}
			if o.Dist != dist[v] {
				t.Fatalf("node %d dist %d, want %d", v, o.Dist, dist[v])
			}
		case apps.TBFSSourceDone:
			if !isSource[id] {
				t.Fatalf("node %d got SourceDone but is not a source", v)
			}
		case unreachable:
			if dist[v] <= tau {
				t.Fatalf("node %d output ∞ but dist %d <= tau %d", v, dist[v], tau)
			}
		default:
			t.Fatalf("node %d: unexpected output %T", v, out)
		}
	}
	wantComplete := g.BallRadius(sources) <= tau
	if res.Complete != wantComplete {
		t.Fatalf("Complete=%v, want %v (D1=%d tau=%d)", res.Complete, wantComplete, g.BallRadius(sources), tau)
	}
}

func TestThresholdedCutsAtTau(t *testing.T) {
	g := graph.Path(24)
	for _, tau := range []int{1, 3, 8, 30} {
		res := thresholded(config{Graph: g, Sources: []graph.NodeID{0}, Threshold: tau,
			Adversary: async.SeededRandom{Seed: 2}})
		checkThresholded(t, g, []graph.NodeID{0}, tau, res)
	}
}

func TestThresholdedMultiSource(t *testing.T) {
	g := graph.Grid(5, 5)
	sources := []graph.NodeID{0, 24}
	for _, tau := range []int{2, 4, 9} {
		res := thresholded(config{Graph: g, Sources: sources, Threshold: tau,
			Adversary: async.SeededRandom{Seed: 7}})
		checkThresholded(t, g, sources, tau, res)
	}
}

func TestThresholdedAdversaries(t *testing.T) {
	g := graph.RandomConnected(20, 45, 11)
	sources := []graph.NodeID{3}
	for _, adv := range async.StandardAdversaries(g.N(), 61) {
		res := thresholded(config{Graph: g, Sources: sources, Threshold: 2, Adversary: adv})
		checkThresholded(t, g, sources, 2, res)
	}
}

func TestFullBFS(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		sources []graph.NodeID
	}{
		{"path20", graph.Path(20), []graph.NodeID{0}},
		{"grid4x5", graph.Grid(4, 5), []graph.NodeID{0}},
		{"er24-multi", graph.RandomConnected(24, 55, 5), []graph.NodeID{0, 13}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := FullMode(tc.g, tc.sources, async.SeededRandom{Seed: 3}, async.ModeAuto)
			dist, _ := tc.g.MultiBFS(tc.sources)
			d1 := tc.g.BallRadius(tc.sources)
			if res.FinalThreshold < d1 {
				t.Fatalf("final threshold %d < D1 %d", res.FinalThreshold, d1)
			}
			if res.FinalThreshold >= 4*d1+4 {
				t.Fatalf("final threshold %d overshoots D1 %d", res.FinalThreshold, d1)
			}
			for v := 0; v < tc.g.N(); v++ {
				out := res.Outputs[graph.NodeID(v)]
				switch o := out.(type) {
				case apps.TBFSResult:
					if o.Dist != dist[v] {
						t.Fatalf("node %d dist %d, want %d", v, o.Dist, dist[v])
					}
				case apps.TBFSSourceDone:
					// source
				default:
					t.Fatalf("node %d: unexpected final output %T", v, out)
				}
			}
		})
	}
}

func TestFullBFSIterationCount(t *testing.T) {
	g := graph.Path(30)
	res := FullMode(g, []graph.NodeID{0}, async.Fixed{D: 1}, async.ModeAuto)
	// D1 = 29: thresholds 1,2,4,8,16,32 -> 6 iterations.
	if res.Iterations != 6 {
		t.Fatalf("iterations = %d, want 6", res.Iterations)
	}
}

func TestCheckLevel(t *testing.T) {
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for tau, lvl := range want {
		if got := checkLevel(tau); got != lvl {
			t.Errorf("checkLevel(%d) = %d, want %d", tau, got, lvl)
		}
	}
}

// TestFullModeMatchesSerial runs the complete doubling BFS — every
// iteration on the reused bounded-lag engine — and requires the aggregate
// FullResult (summed costs, decoded final outputs, iteration count) to
// deep-equal the serial run's.
func TestFullModeMatchesSerial(t *testing.T) {
	g := graph.Grid(6, 6)
	sources := []graph.NodeID{0, 35}
	for _, adv := range []async.Adversary{
		async.Fixed{D: 1},
		async.SeededRandom{Seed: 23},
	} {
		serial := FullMode(g, sources, adv, async.ModeSingle)
		// ModeSpec runs the stack on per-round clones, so it also covers
		// the glue's and the checking gather's direct clone path.
		for _, mode := range []async.ExecutionMode{async.ModeMulti, async.ModeSpec} {
			par := FullMode(g, sources, adv, mode)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%s: FullMode in mode %d differs from serial:\n%+v\nvs\n%+v", adv.Name(), mode, serial, par)
			}
		}
		if bad := apps.CheckBFSOutputs(g, sources, toBFSOutputs(serial.Outputs)); bad >= 0 {
			t.Fatalf("%s: node %d has wrong BFS output", adv.Name(), bad)
		}
	}
}

// toBFSOutputs adapts TBFS outputs to the BFS checker's shape.
func toBFSOutputs(outputs map[graph.NodeID]any) map[graph.NodeID]any {
	conv := make(map[graph.NodeID]any, len(outputs))
	for v, o := range outputs {
		switch x := o.(type) {
		case apps.TBFSResult:
			conv[v] = apps.BFSResult{Dist: x.Dist, Parent: x.Parent, Source: x.Source}
		case apps.TBFSSourceDone:
			conv[v] = apps.BFSResult{Dist: 0, Parent: -1, Source: v}
		default:
			conv[v] = o
		}
	}
	return conv
}
