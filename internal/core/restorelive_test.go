package core_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/abfs"
	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// liveStacks names every shipped checkpointable stack, in the order the
// fuzz target indexes them.
var liveStacks = []string{
	"sync-bfs", "sync-leader", "sync-mst",
	"alpha", "beta", "gamma",
	"abfs-tbfs",
	"shard-flood", "shard-bfs", "shard-segflood",
}

// liveStack returns a constructor of fresh, traced engines running the
// named stack on g under adv; every engine it returns uses the same
// handler constructor.
func liveStack(t testing.TB, name string, g *graph.Graph, adv async.Adversary) func() *async.Sim {
	t.Helper()
	bfs := func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0}} }
	boundOf := func(mk func(graph.NodeID) syncrun.Handler) int { return syncrun.New(g, mk).Run().Rounds + 2 }
	synchronized := func(mk func(graph.NodeID) syncrun.Handler) func(graph.NodeID) async.Handler {
		bound := boundOf(mk)
		return core.StackMaker(g, core.NewSchedule(bound), core.BuildLayeredFor(g, bound), mk, nil)
	}
	var mk func(graph.NodeID) async.Handler
	switch name {
	case "sync-bfs":
		mk = synchronized(bfs)
	case "sync-leader":
		layered := cover.BuildLayered(g, max(g.Diameter(), 1))
		spans := apps.LeaderSpansAll(g, layered)
		mk = synchronized(func(graph.NodeID) syncrun.Handler { return &apps.Leader{Covers: layered, SpansAll: spans} })
	case "sync-mst":
		tree := cover.BFSTree(g, 0)
		weights := make([]int64, g.M())
		for i := range weights {
			weights[i] = g.Weight(graph.EdgeID(i))
		}
		mk = synchronized(func(graph.NodeID) syncrun.Handler { return &apps.MST{Barrier: tree, Weights: weights} })
	case "alpha":
		mk = core.AlphaHandlers(boundOf(bfs), bfs)
	case "beta":
		mk = core.BetaHandlers(g, boundOf(bfs), bfs)
	case "gamma":
		mk = core.GammaHandlers(g, boundOf(bfs), bfs)
	case "abfs-tbfs":
		mk = abfs.IterationStacks(g, []graph.NodeID{0, graph.NodeID(g.N() - 1)}, 2)
	case "shard-flood", "shard-bfs", "shard-segflood":
		var err error
		if mk, err = shard.NewWorkload(name[len("shard-"):], shard.WorkloadConfig{SegWords: 5}); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown stack %q", name)
	}
	return func() *async.Sim { return async.New(g, adv, mk).WithMode(async.ModeSingle).KeepTrace() }
}

// restoreLive checkpoints a run at event k1 (before Init when k1 < 0),
// advances the same handle k2 more events (to quiescence when k2 < 0),
// restores the checkpoint into it and finishes in mode. The result and
// trace must be the uninterrupted run's, with no arena segment left live.
func restoreLive(t testing.TB, name string, build func() *async.Sim, want async.Result, k1, k2 int64, mode async.ExecutionMode) {
	t.Helper()
	run := build()
	if k1 >= 0 {
		run.RunSteps(uint64(k1))
	}
	frame, err := run.Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot at %d: %v", name, k1, err)
	}
	steps := uint64(k2)
	if k2 < 0 {
		steps = 1 << 40
	}
	run.RunSteps(steps)
	if err := run.Restore(frame); err != nil {
		t.Fatalf("%s: restore of the event-%d frame after %d more: %v", name, k1, k2, err)
	}
	if got := run.WithMode(mode).Run(); !reflect.DeepEqual(withoutSegHandles(got), withoutSegHandles(want)) {
		t.Fatalf("%s: checkpoint at %d, %d more events, restored and finished in %v: the run diverged from the uninterrupted one", name, k1, k2, mode)
	}
	if live := run.Arena().Live(); live != 0 {
		t.Fatalf("%s: checkpoint at %d, %d more events, %v: %d arena segments leaked", name, k1, k2, mode, live)
	}
}

// withoutSegHandles returns r with every trace body's segment handle
// cleared. Trace bodies keep handle images, which are arena offsets: a
// restored engine re-carves the frame's segments in decode order, and
// ModeMulti carves concurrently, so neither reproduces them.
func withoutSegHandles(r async.Result) async.Result {
	r.Trace = slices.Clone(r.Trace)
	for i := range r.Trace {
		r.Trace[i].Msg.Body.Seg = wire.Seg{}
	}
	return r
}

// TestRestoreLiveMatrix restores checkpoints into the handle that took
// them, after it ran on — part of the way or to quiescence — for every
// shipped checkpointable stack. Restore keeps the handlers the run has, so
// this holds only if every LoadState replaces the state its handler
// reached rather than filling in a fresh one.
func TestRestoreLiveMatrix(t *testing.T) {
	g, err := graph.FromSpec("er:n=14,m=30,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	g = graph.WithRandomWeights(g, 5)
	fs, err := async.ParseFaultSpec("drop:p=0.05,budget=4,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	adv := async.WithFaults(async.SeededRandom{Seed: 7}, fs)
	for _, name := range liveStacks {
		t.Run(name, func(t *testing.T) {
			build := liveStack(t, name, g, adv)
			want := build().Run()
			events := int64(want.Msgs + want.Acks + want.Retrans)
			for _, k1 := range []int64{-1, 0, events / 3, 2 * events / 3, events} {
				for _, k2 := range []int64{(events - max(k1, 0)) / 2, -1} {
					for _, mode := range []async.ExecutionMode{async.ModeSingle, async.ModeMulti} {
						restoreLive(t, name, build, want, k1, k2, mode)
					}
				}
			}
		})
	}
}

// FuzzRestoreLive is TestRestoreLiveMatrix over arbitrary small graphs,
// stacks and checkpoint positions.
func FuzzRestoreLive(f *testing.F) {
	for i := range liveStacks {
		f.Add("grid:3x4", uint8(i), int64(i*7), int64(20))
	}
	f.Add("cycle:7", uint8(0), int64(-1), int64(-1))
	f.Add("er:n=12,m=20,seed=9", uint8(5), int64(40), int64(-1))
	f.Add("path:5", uint8(6), int64(3), int64(1))
	f.Fuzz(func(t *testing.T, spec string, stack uint8, k1, k2 int64) {
		g, err := graph.FromSpec(spec)
		if err != nil || g.N() < 2 || g.N() > 24 || !g.Connected() {
			t.Skip()
		}
		g = graph.WithRandomWeights(g, 1)
		name := liveStacks[int(stack)%len(liveStacks)]
		build := liveStack(t, name, g, async.SeededRandom{Seed: uint64(k1) ^ uint64(k2)})
		want := build().Run()
		mode := async.ModeSingle
		if k2%2 != 0 {
			mode = async.ModeMulti
		}
		restoreLive(t, name, build, want, k1%4096, k2%4096, mode)
	})
}
