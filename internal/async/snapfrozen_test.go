package async_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// The SHA-256 over every event-boundary Snapshot frame of frozenSim's run —
// the pristine engine, then one frame after each event — and over the frames
// an engine restored from each of them writes back. They were computed when
// the serial engine kept its counters on the Sim and every worker context its
// own copy; how the engine books its ledger must not show in either.
const (
	snapFramesGrid4    = "7cdbc9ea38232b2149ff65f3aed893c80138e565935f0eaabf8ac55a2255d437"
	snapRewrittenGrid4 = "8b5a3848b5be39641aff1983b7e3fe75008a904b62309d54b7c084f998af8163"
)

// frozenSim builds a traced synchronized BFS from node 0 on grid:4x4 under
// seeded random delays and a drop schedule, so the frames carry fault
// counters and retransmission events as well as the synchronizer's state.
func frozenSim(t *testing.T) func() *async.Sim {
	t.Helper()
	g, err := graph.FromSpec("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0}} }
	bound := syncrun.New(g, mk).Run().Rounds + 2
	fs, err := async.ParseFaultSpec("drop:p=0.05,budget=4,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Graph:     g,
		Bound:     bound,
		Adversary: async.WithFaults(async.SeededRandom{Seed: 7}, fs),
		Layered:   core.BuildLayeredFor(g, bound),
		Mode:      async.ModeSingle,
	}
	return func() *async.Sim { return core.NewSynchronizedSim(cfg, mk).KeepTrace() }
}

// TestSnapshotFormatFrozen pins the async engine's frame bytes and checks
// Snapshot → Restore → Snapshot at every event boundary. The event section
// is written in queue order, which a restore into a fresh queue need not
// reproduce, so the rewritten frame is pinned by its own hash and must be a
// fixpoint: one more Restore → Snapshot gives it back byte for byte.
func TestSnapshotFormatFrozen(t *testing.T) {
	build := frozenSim(t)
	s, b := build(), build()
	written, rewritten := sha256.New(), sha256.New()
	frames := 0
	roundTrip := func(snap []byte) []byte {
		if err := b.Restore(snap); err != nil {
			t.Fatalf("restore of frame %d: %v", frames, err)
		}
		again, err := b.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of restored frame %d: %v", frames, err)
		}
		return again
	}
	frame := func() {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", frames, err)
		}
		written.Write(snap)
		again := roundTrip(snap)
		if len(again) != len(snap) {
			t.Fatalf("frame %d: %d bytes rewritten as %d", frames, len(snap), len(again))
		}
		if fix := roundTrip(again); !bytes.Equal(fix, again) {
			t.Fatalf("frame %d: a restored engine's frame does not survive Restore → Snapshot", frames)
		}
		rewritten.Write(again)
		frames++
	}
	frame()
	for done := false; !done; {
		done = s.RunSteps(1)
		frame()
	}
	res := s.FinishResult()
	if res.Retrans == 0 || res.Dropped != res.Retrans+res.Undeliverable {
		t.Fatalf("fault ledger dropped=%d retrans=%d undeliverable=%d: the run must exercise the drop path",
			res.Dropped, res.Retrans, res.Undeliverable)
	}
	if got := hex.EncodeToString(written.Sum(nil)); got != snapFramesGrid4 {
		t.Errorf("%d frames hash to %s, want %s", frames, got, snapFramesGrid4)
	}
	if got := hex.EncodeToString(rewritten.Sum(nil)); got != snapRewrittenGrid4 {
		t.Errorf("%d rewritten frames hash to %s, want %s", frames, got, snapRewrittenGrid4)
	}
}
