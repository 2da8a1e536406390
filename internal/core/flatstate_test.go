package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// Tests for the flat synchronizer state: ModeSpec's codec clone must be a
// real copy that equals a snapshot's save+load, cost nothing in steady
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
		layered := cover.BuildLayered(g, g.Diameter())
		spans := apps.LeaderSpansAll(g, layered)
		wg := graph.WithRandomWeights(g, 5)
		weights := make([]int64, wg.M())
		for i := range weights {
			weights[i] = wg.Weight(graph.EdgeID(i))
		}
		tree := cover.BFSTree(wg, 0)
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

// TestCloneEqualsSaveLoad is the property ModeSpec's clones rest on: at
// every k-th event of a synchronized run, for every node,
//
//	SaveState(clone) == SaveState(source) == SaveState(load(save(source)))
//
// byte for byte, where the clone is Mux.CloneStateInto — the arena-less
// codec copy the engine makes — into a target reused stop after stop.
// Then the source and the restored copy each run one more event and must
// still agree, while the clones — which share no memory with the source if
// the copy is a real copy — must not have moved.
func TestCloneEqualsSaveLoad(t *testing.T) {
	for _, tc := range stackCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: tc.g, Bound: tc.bound, Adversary: async.SeededRandom{Seed: 7}, Mode: async.ModeSingle}
			ref := Synchronize(cfg, tc.mk)
			stride := (ref.Msgs+ref.Acks)/12 + 1

			src := NewSynchronizedSim(cfg, tc.mk)
			restored := NewSynchronizedSim(cfg, tc.mk)
			clones := NewSynchronizedSim(cfg, tc.mk) // never run: its handlers are clone targets
			want := make([][]byte, tc.g.N())
			for stop := 0; ; stop++ {
				done := src.RunSteps(stride)
				// Every output is a typed body, so the engine frame
				// carries every stop, outputs included.
				snap, err := src.Snapshot()
				if err != nil {
					t.Fatalf("stop %d: %v", stop, err)
				}
				if err := restored.Restore(snap); err != nil {
					t.Fatalf("stop %d: %v", stop, err)
				}
				for v := 0; v < tc.g.N(); v++ {
					id := graph.NodeID(v)
					want[v] = saveHandler(t, src.Handler(id))
					src.Handler(id).(*async.Mux).CloneStateInto(clones.Handler(id))
					if got := saveHandler(t, clones.Handler(id)); !bytes.Equal(got, want[v]) {
						t.Fatalf("stop %d node %d: clone differs from source (%d vs %d bytes)", stop, v, len(got), len(want[v]))
					}
					if got := saveHandler(t, restored.Handler(id)); !bytes.Equal(got, want[v]) {
						t.Fatalf("stop %d node %d: save+load differs from source (%d vs %d bytes)", stop, v, len(got), len(want[v]))
					}
				}
				src.RunSteps(1)
				restored.RunSteps(1)
				for v := 0; v < tc.g.N(); v++ {
					id := graph.NodeID(v)
					if !bytes.Equal(saveHandler(t, src.Handler(id)), saveHandler(t, restored.Handler(id))) {
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

			// A clone target is reused round after round: cloning a younger,
			// smaller state into it must leave nothing of the old one behind.
			fresh := NewSynchronizedSim(cfg, tc.mk)
			for v := 0; v < tc.g.N(); v++ {
				id := graph.NodeID(v)
				fresh.Handler(id).(*async.Mux).CloneStateInto(clones.Handler(id))
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

// TestNodeHandlerStacks builds every node's stack through NewNodeHandler,
// as the benchmark's traced phase does: one one-slot batch per node, bound
// to its node when the engine builds it. The run must equal Synchronize's,
// trace included, and a Snapshot taken halfway must restore into a fresh
// engine of such stacks that never started and finish identically.
func TestNodeHandlerStacks(t *testing.T) {
	cfg := syncBFSWorkload(t)
	cfg.Layered = BuildLayeredFor(cfg.Graph, cfg.Bound)
	want := NewSynchronizedSim(cfg, mkBFS0).KeepTrace().Run()
	sched := NewSchedule(cfg.Bound)
	build := func() *async.Sim {
		return async.New(cfg.Graph, cfg.Adversary, func(id graph.NodeID) async.Handler {
			return NewNodeHandler(sched, cfg.Layered, mkBFS0(id))
		}).WithMode(async.ModeSingle).KeepTrace()
	}
	if got := build().Run(); !reflect.DeepEqual(got, want) {
		t.Fatal("a run of NewNodeHandler stacks differs from Synchronize's")
	}
	run := build()
	run.RunSteps((want.Msgs + want.Acks) / 2)
	frame, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := build()
	if err := fresh.Restore(frame); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Run(); !reflect.DeepEqual(got, want) {
		t.Fatal("a fresh engine restored from the halfway frame finished differently")
	}
}

// TestMuxCloneSteadyStateAllocs pins the point of the flat layout: once a
// clone target has been through one round, the engine's codec clone of a
// mid-run synchronizer node into it — SaveState into an arena-less Enc,
// LoadState from an arena-less Dec, both retained as each speculative
// worker retains its pair — loads into retained capacity: zero
// allocations.
func TestMuxCloneSteadyStateAllocs(t *testing.T) {
	cfg := syncBFSWorkload(t)
	ref := Synchronize(cfg, mkBFS0)
	src := NewSynchronizedSim(cfg, mkBFS0)
	src.RunSteps((ref.Msgs + ref.Acks) / 2)
	dst := NewSynchronizedSim(cfg, mkBFS0)
	var e wire.Enc
	var d wire.Dec
	for v := 0; v < cfg.Graph.N(); v++ {
		id := graph.NodeID(v)
		from, to := src.Handler(id).(wire.StateCodec), dst.Handler(id).(wire.StateCodec)
		clone := func() {
			e.Reset()
			from.SaveState(&e)
			d.Reset(e.Bytes(), nil)
			to.LoadState(&d)
		}
		clone() // first touch sizes the target's slices
		if err := d.Err(); err != nil || d.Remaining() != 0 {
			t.Fatalf("node %d: clone: %v (%d bytes unread)", v, err, d.Remaining())
		}
		if avg := testing.AllocsPerRun(10, clone); avg != 0 {
			t.Fatalf("node %d: steady-state Mux clone allocates %.1f times, want 0", v, avg)
		}
	}
}

// TestSerialSynchronizedBFSAllocs guards the serial handler path. One
// forced-ModeSingle run of this workload made 46 912 allocations with the
// state in maps, 31 003 with the flat layout, and 2 507 once outboxes,
// node stacks and their run state came from per-run slabs (Go 1.24,
// linux/amd64) — the rest is mostly the event queue's slot slices and the
// Result. The ceiling is that figure plus 5 %, so a per-node or per-message
// allocation creeping back in fails it; the race detector adds a few
// percent of its own, so under -race the ceiling is 15 % over.
func TestSerialSynchronizedBFSAllocs(t *testing.T) {
	cfg := syncBFSWorkload(t)
	cfg.Layered = BuildLayeredFor(cfg.Graph, cfg.Bound)
	const measured = 2507
	ceiling := measured * 105 / 100
	if raceEnabled {
		ceiling = measured * 115 / 100
	}
	if avg := testing.AllocsPerRun(3, func() { Synchronize(cfg, mkBFS0) }); avg > float64(ceiling) {
		t.Fatalf("serial synchronized BFS allocates %.0f times per run, ceiling %d (measured %d)", avg, ceiling, measured)
	} else {
		t.Logf("%.0f allocations per run (measured %d, ceiling %d)", avg, measured, ceiling)
	}
}

// TestCheckpointAllocs pins the state plane on a live synchronized run.
// Restore keeps the handlers a run already has and replaces their state,
// and Snapshot writes its frame once into a buffer sized from the previous
// frame, so rewinding a run to a checkpoint it took allocates a handful of
// objects whatever the graph's size: 12 and 2 on both grids (Go 1.24,
// linux/amd64). Before, Restore rebuilt every node's stack (1 168
// allocations on grid:20x20, 3 741 on grid:40x40, halfway through the run)
// and Snapshot grew and then copied its buffer (30 and 37).
func TestCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race shadow state inflates allocation counts")
	}
	const maxRestore, maxSnapshot = 16, 4
	for _, spec := range []string{"grid:20x20", "grid:40x40"} {
		g, err := graph.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Graph: g, Bound: g.Diameter() + 2, Adversary: async.SeededRandom{Seed: 1}, Mode: async.ModeSingle}
		cfg.Layered = BuildLayeredFor(g, cfg.Bound)
		ref := Synchronize(cfg, mkBFS0)
		run := NewSynchronizedSim(cfg, mkBFS0)
		run.RunSteps((ref.Msgs + ref.Acks) / 2)
		frame, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restore := testing.AllocsPerRun(5, func() {
			if err := run.Restore(frame); err != nil {
				t.Fatal(err)
			}
		})
		snapshot := testing.AllocsPerRun(5, func() {
			if _, err := run.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
		if restore > maxRestore || snapshot > maxSnapshot {
			t.Errorf("%s: Restore allocates %.0f times (pin %d), Snapshot %.0f (pin %d)",
				spec, restore, maxRestore, snapshot, maxSnapshot)
		} else {
			t.Logf("%s: Restore %.0f allocations, Snapshot %.0f", spec, restore, snapshot)
		}
		if got := run.RunSteps(1 << 40); !got {
			t.Fatalf("%s: not quiescent", spec)
		}
		if res := run.FinishResult(); !reflect.DeepEqual(res, ref) {
			t.Errorf("%s: the rewound run finished differently", spec)
		}
	}
}
