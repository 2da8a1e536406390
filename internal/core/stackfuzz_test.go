package core_test

import (
	"bytes"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// fuzzStacks are the stacks FuzzStackLoadState loads into: the
// synchronizer core with its registration and barrier modules around BFS,
// Leader and MST (whose per-level and per-phase state sits in maps), the γ
// baseline (its per-(cluster, pulse) map) and abfs' checking stage (TBFS
// plus the glue and its gather module).
var fuzzStacks = []string{"sync-bfs", "sync-leader", "sync-mst", "gamma", "abfs-tbfs"}

func saveStack(h async.Handler) []byte {
	var e wire.Enc
	h.(wire.StateCodec).SaveState(&e)
	return e.Bytes()
}

// FuzzStackLoadState feeds arbitrary bytes to LoadState on whole
// synchronizer stacks, each bound to its node by the engine that built it.
// A frame's first byte picks the stack and node; the rest is the state,
// decoded without an arena as ModeSpec's clones are. LoadState must not
// panic and must save back exactly the bytes it accepted. The targets are
// reused from frame to frame, so each load also replaces whatever the last
// one left. The seeds are every node's state at every 15th event of a
// synchronized run, so mutations start from live stacks.
func FuzzStackLoadState(f *testing.F) {
	g, err := graph.FromSpec("grid:3x4")
	if err != nil {
		f.Fatal(err)
	}
	adv := async.SeededRandom{Seed: 3}
	targets := make([]*async.Sim, len(fuzzStacks))
	for si, name := range fuzzStacks {
		build := liveStack(f, name, g, adv)
		run := build()
		for done := false; !done; {
			done = run.RunSteps(15)
			for v := range g.N() {
				f.Add(append([]byte{byte(si*g.N() + v)}, saveStack(run.Handler(graph.NodeID(v)))...))
			}
		}
		targets[si] = build()
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		k := int(frame[0]) % (len(targets) * g.N())
		h := targets[k/g.N()].Handler(graph.NodeID(k % g.N()))
		d := wire.NewDec(frame[1:], nil)
		h.(wire.StateCodec).LoadState(d)
		if d.Err() != nil {
			return
		}
		if accepted, got := frame[1:len(frame)-d.Remaining()], saveStack(h); !bytes.Equal(got, accepted) {
			t.Fatalf("%s node %d: accepted %d bytes, saves %d different ones", fuzzStacks[k/g.N()], k%g.N(), len(accepted), len(got))
		}
	})
}
