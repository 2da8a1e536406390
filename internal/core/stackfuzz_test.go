package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// fuzzStacks are the stacks FuzzStackLoadState loads into: the
// synchronizer core with its registration and barrier modules around BFS,
// Leader and MST (whose per-level and per-phase state sits in maps), the
// α, β and γ baselines (γ's per-(cluster, pulse) map), abfs' checking
// stage (TBFS plus the glue and its gather module) and the three shard
// workloads' nodes.
var fuzzStacks = []string{"sync-bfs", "sync-leader", "sync-mst", "alpha", "beta", "gamma", "abfs-tbfs",
	"shard-flood", "shard-bfs", "shard-segflood"}

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

// frozenStackHashes are the SHA-256 digests TestStackFramesFrozen pins, one
// per stack, over every node's SaveState at every 15th event of a run on
// grid:3x4 under SeededRandom{Seed: 3}.
var frozenStackHashes = map[string]string{
	"sync-bfs":       "756640eadadd1bb3ec86696ccf953ab50e334d54efaea71db199e741f66b10de",
	"sync-leader":    "23873cfd962a13815665476b828b9d50ea496c7c16e56e5ccdf432d8a7d8de87",
	"sync-mst":       "bb77f95e02ab7d75cd003b4f77592ebc03b03ec5e6231d931895b1f525617f69",
	"alpha":          "ea16310d48ec21c3db6eaf3ac274c2066661ba361cac20811376fb460a9890ab",
	"beta":           "a22762d715b06e05aa8fb6b6b08d0e44963a91e8014f72065354dd03468f70cd",
	"gamma":          "24946d9bf4e26cd7d13cdae9aaf2427807139d2f301ea632e3a03d92831669cb",
	"abfs-tbfs":      "d61b85575003ec078774052f061dce7ccccdcd7cf9648da72559ebe6d10a1180",
	"shard-flood":    "7c58e2e48f4bd364f4c5d11f0be6ba92dc55001935766a585f4d20685f0ad20d",
	"shard-bfs":      "dcd973bdb4571373c9fbf3567537ccafb3f1357c18aa62775111c2cd5eff1741",
	"shard-segflood": "7c58e2e48f4bd364f4c5d11f0be6ba92dc55001935766a585f4d20685f0ad20d",
}

// TestStackFramesFrozen pins the bytes of every handler and module state
// codec: a codec whose fields are reordered, resized or dropped changes its
// stack's digest even when it still round-trips.
func TestStackFramesFrozen(t *testing.T) {
	g, err := graph.FromSpec("grid:3x4")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sync-bfs", "sync-leader", "sync-mst", "alpha", "beta", "gamma",
		"abfs-tbfs", "shard-flood", "shard-bfs", "shard-segflood"} {
		run := liveStack(t, name, g, async.SeededRandom{Seed: 3})()
		h := sha256.New()
		for done := false; !done; {
			done = run.RunSteps(15)
			for v := range g.N() {
				h.Write(saveStack(run.Handler(graph.NodeID(v))))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != frozenStackHashes[name] {
			t.Errorf("%s: state frames hash to %s, want %s", name, got, frozenStackHashes[name])
		}
	}
}
