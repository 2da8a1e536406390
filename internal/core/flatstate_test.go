package core

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// Tests for the flat synchronizer state: the direct clone path must be
// indistinguishable from the codec it replaced, cost nothing in steady
// state, and the serial handler path must not allocate more than it did
// when the state lived in maps.

func saveHandler(t testing.TB, h async.Handler) []byte {
	t.Helper()
	var e wire.Enc
	h.(wire.StateCodec).SaveState(&e)
	return append([]byte(nil), e.Bytes()...)
}

type stackCase struct {
	name  string
	g     *graph.Graph
	mk    func(graph.NodeID) syncrun.Handler
	bound int
}

// stackCases is synchronized BFS, TBFS, Leader and MST on the generator
// suite (path, grid, er, pa).
func stackCases(t testing.TB) []stackCase {
	t.Helper()
	var cases []stackCase
	for _, spec := range []string{"path:14", "grid:5x5", "er:n=40,m=100,seed=3", "pa:n=36,m=3,seed=7"} {
		g, err := graph.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		far := graph.NodeID(g.N() - 1)
		layered := cover.BuildLayered(g, g.Diameter(), nil)
		spans := apps.LeaderSpansAll(g, layered)
		wg := graph.WithRandomWeights(g, 5)
		weights := make([]int64, wg.M())
		for i := range weights {
			weights[i] = wg.Weight(graph.EdgeID(i))
		}
		tree := cover.BFSTreeCluster(wg, 0)
		for _, ac := range []struct {
			name string
			g    *graph.Graph
			mk   func(graph.NodeID) syncrun.Handler
		}{
			{"bfs", g, func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0, far}} }},
			{"tbfs", g, func(graph.NodeID) syncrun.Handler {
				return &apps.TBFS{Sources: []graph.NodeID{0}, Threshold: 3}
			}},
			{"leader", g, func(graph.NodeID) syncrun.Handler { return &apps.Leader{Covers: layered, SpansAll: spans} }},
			{"mst", wg, func(graph.NodeID) syncrun.Handler { return &apps.MST{Barrier: tree, Weights: weights} }},
		} {
			bound := syncrun.New(ac.g, ac.mk).Run().Rounds + 2
			cases = append(cases, stackCase{spec + "/" + ac.name, ac.g, ac.mk, bound})
		}
	}
	return cases
}

// TestCloneEqualsSaveLoad is the property the direct clone path rests on:
// at every k-th event of a synchronized run, for every node,
//
//	SaveState(clone) == SaveState(source) == SaveState(load(save(source)))
//
// byte for byte. Then the source and the restored copy each run one more
// event and must still agree, while the clones — which share no memory
// with the source if the copy is a real copy — must not have moved.
func TestCloneEqualsSaveLoad(t *testing.T) {
	for _, tc := range stackCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: tc.g, Bound: tc.bound, Adversary: async.SeededRandom{Seed: 7}, Mode: async.ModeSingle}
			ref := Synchronize(cfg, tc.mk)
			stride := (ref.Msgs+ref.Acks)/12 + 1

			src := newSynchronizedSim(cfg, tc.mk)
			restored := newSynchronizedSim(cfg, tc.mk)
			clones := newSynchronizedSim(cfg, tc.mk) // never run: its handlers are clone targets
			want := make([][]byte, tc.g.N())
			loads := 0
			for stop := 0; ; stop++ {
				done := src.RunSteps(stride)
				// The engine frame cannot carry boxed outputs (MST's), so
				// once a node has produced one only the clone leg runs.
				snap, err := src.Snapshot()
				loaded := err == nil
				if loaded {
					loads++
					if err := restored.Restore(snap); err != nil {
						t.Fatalf("stop %d: %v", stop, err)
					}
				}
				for v := 0; v < tc.g.N(); v++ {
					id := graph.NodeID(v)
					want[v] = saveHandler(t, src.Handler(id))
					src.Handler(id).(async.StateCloner).CloneStateInto(clones.Handler(id))
					if got := saveHandler(t, clones.Handler(id)); !bytes.Equal(got, want[v]) {
						t.Fatalf("stop %d node %d: clone differs from source (%d vs %d bytes)", stop, v, len(got), len(want[v]))
					}
					if !loaded {
						continue
					}
					if got := saveHandler(t, restored.Handler(id)); !bytes.Equal(got, want[v]) {
						t.Fatalf("stop %d node %d: save+load differs from source (%d vs %d bytes)", stop, v, len(got), len(want[v]))
					}
				}
				src.RunSteps(1)
				if loaded {
					restored.RunSteps(1)
				}
				for v := 0; v < tc.g.N(); v++ {
					id := graph.NodeID(v)
					if loaded && !bytes.Equal(saveHandler(t, src.Handler(id)), saveHandler(t, restored.Handler(id))) {
						t.Fatalf("stop %d node %d: source and restored copy diverge after one more event", stop, v)
					}
					if !bytes.Equal(saveHandler(t, clones.Handler(id)), want[v]) {
						t.Fatalf("stop %d node %d: clone moved when its source ran on — shared backing array", stop, v)
					}
				}
				if done {
					break
				}
			}
			if loads < 5 {
				t.Fatalf("only %d stops could be snapshotted", loads)
			}

			// A clone target is reused round after round: cloning a younger,
			// smaller state into it must leave nothing of the old one behind.
			fresh := newSynchronizedSim(cfg, tc.mk)
			for v := 0; v < tc.g.N(); v++ {
				id := graph.NodeID(v)
				fresh.Handler(id).(async.StateCloner).CloneStateInto(clones.Handler(id))
				if !bytes.Equal(saveHandler(t, clones.Handler(id)), saveHandler(t, fresh.Handler(id))) {
					t.Fatalf("node %d: cloning a fresh handler into a used target left old state behind", v)
				}
			}
		})
	}
}

// syncBFSWorkload is the benchmark's sync-bfs shape: BFS from node 0 on
// er:n=200,m=2100 under random delays.
func syncBFSWorkload(t testing.TB) Config {
	g, err := graph.FromSpec("er:n=200,m=2100,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	return Config{Graph: g, Bound: g.Diameter() + 2, Adversary: async.SeededRandom{Seed: 1}, Mode: async.ModeSingle}
}

func mkBFS0(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0}} }

// TestMuxCloneSteadyStateAllocs pins the point of the flat layout: once a
// clone target has been through one round, cloning a mid-run synchronizer
// node into it is copies into retained capacity — zero allocations.
func TestMuxCloneSteadyStateAllocs(t *testing.T) {
	cfg := syncBFSWorkload(t)
	ref := Synchronize(cfg, mkBFS0)
	src := newSynchronizedSim(cfg, mkBFS0)
	src.RunSteps((ref.Msgs + ref.Acks) / 2)
	dst := newSynchronizedSim(cfg, mkBFS0)
	for v := 0; v < cfg.Graph.N(); v++ {
		id := graph.NodeID(v)
		from, to := src.Handler(id).(async.StateCloner), dst.Handler(id)
		from.CloneStateInto(to) // first touch binds the target and sizes its slices
		if avg := testing.AllocsPerRun(10, func() { from.CloneStateInto(to) }); avg != 0 {
			t.Fatalf("node %d: steady-state Mux clone allocates %.1f times, want 0", v, avg)
		}
	}
}

// TestSerialSynchronizedBFSAllocs guards the serial handler path: with the
// state in maps (and a sort per evaluate, afterAnswersMaybe and runG) one
// forced-ModeSingle run of this workload made 46 912 allocations. The
// ceiling below is that figure; the flat layout sits far under it, and a
// per-event sort or scratch slice creeping back in would not.
func TestSerialSynchronizedBFSAllocs(t *testing.T) {
	cfg := syncBFSWorkload(t)
	cfg.Layered = BuildLayeredFor(cfg.Graph, cfg.Bound)
	const parentAllocs = 46912
	if avg := testing.AllocsPerRun(3, func() { Synchronize(cfg, mkBFS0) }); avg > parentAllocs {
		t.Fatalf("serial synchronized BFS allocates %.0f times per run, parent commit made %d", avg, parentAllocs)
	} else {
		t.Logf("%.0f allocations per run (parent commit: %d)", avg, parentAllocs)
	}
}
