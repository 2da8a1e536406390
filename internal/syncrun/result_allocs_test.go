package syncrun_test

import (
	"testing"

	dsync "repro"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// TestLockstepBFSAllocsPerNode pins a whole lockstep BFS, runner
// construction and the Outputs map included, at no more than 1 % of n
// allocations in Single and Multi: nothing at the Result boundary, or
// anywhere else, allocates per node.
func TestLockstepBFSAllocsPerNode(t *testing.T) {
	g, err := graph.FromSpec("er:n=20000,m=80000")
	if err != nil {
		t.Fatal(err)
	}
	mk := dsync.NewBFS([]graph.NodeID{0})
	for _, mode := range []syncrun.ExecutionMode{syncrun.ModeSingle, syncrun.ModeMulti} {
		var res dsync.SyncResult
		got := testing.AllocsPerRun(3, func() { res = dsync.RunSyncMode(g, mode, mk) })
		if len(res.Outputs) != g.N() {
			t.Fatalf("%s: %d outputs, want %d", mode, len(res.Outputs), g.N())
		}
		if limit := float64(g.N()) / 100; got > limit {
			t.Errorf("%s: a BFS over %d nodes made %.0f allocations, want at most %.0f (1 %% of n)", mode, g.N(), got, limit)
		}
	}
}
