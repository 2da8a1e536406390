package core

import (
	"reflect"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// bfsAlgo's wire codec (dist is its only mutable field; src is config).
// Declared here so the stack built over it is fully serializable — the
// precondition for both the state plane and speculative execution.
func (h *bfsAlgo) SaveState(e *wire.Enc) { e.Int(h.dist) }
func (h *bfsAlgo) LoadState(d *wire.Dec) { h.dist = d.Int() }

// TestSynchronizerSpecNoFallback is the regression guard for the state
// plane's one copy contract: the full synchronizer stack (node core +
// per-level register and gather modules under one Mux) snapshots through
// its wire codecs, which are also the speculative executor's clone path.
// ModeSpec must therefore actually speculate — a FellBack downgrade means
// some module lost its codec or the Mux's StateCodecProbe fails.
func TestSynchronizerSpecNoFallback(t *testing.T) {
	g := graph.RandomConnected(30, 70, 6)
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	cfg := Config{Graph: g, Bound: g.Diameter() + 2, Adversary: async.SeededRandom{Seed: 3}}

	want := Synchronize(cfg, mk)

	specCfg := cfg
	specCfg.Mode = async.ModeSpec
	sim := NewSynchronizedSim(specCfg, mk)
	got := sim.Run()

	st := sim.SpecStats()
	if st.FellBack {
		t.Fatal("ModeSpec fell back: the synchronizer stack is no longer copyable through its state codec")
	}
	if st.Executed == 0 {
		t.Fatal("ModeSpec executed no speculative rounds on a synchronized run")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("speculative synchronized run diverged from the default mode")
	}
}

// TestSynchronizedSnapshotSpecMatrix snapshots a mid-flight synchronized
// run — the deepest stack the state plane serializes (node core, per-level
// register and gather modules, all under one Mux) — and resumes it in
// every engine mode. The continuation must be byte-identical to the
// uninterrupted run.
func TestSynchronizedSnapshotSpecMatrix(t *testing.T) {
	g := graph.RandomConnected(24, 55, 9)
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	cfg := Config{Graph: g, Bound: g.Diameter() + 2, Adversary: async.SeededRandom{Seed: 8}}
	want := Synchronize(cfg, mk)

	for _, k := range []uint64{0, 1, 40, 200, 1000, 5000} {
		a := NewSynchronizedSim(cfg, mk)
		a.RunSteps(k)
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at event %d: %v", k, err)
		}
		for _, mode := range []async.ExecutionMode{async.ModeSingle, async.ModeMulti, async.ModeSpec} {
			b := NewSynchronizedSim(cfg, mk)
			if err := b.Restore(snap); err != nil {
				t.Fatalf("restore at event %d: %v", k, err)
			}
			if got := b.WithMode(mode).Run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("synchronized run resumed at event %d in mode %d diverged", k, mode)
			}
		}
	}
}
