package async_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// snapFramesGrid4 is the SHA-256 over every event-boundary Snapshot frame
// of frozenSim's run: the pristine engine, then one frame after each event.
// It was computed when the serial engine kept its counters on the Sim and
// every worker context its own copy, and recomputed once when the event
// section moved from queue order to (t, seq) order; how the engine books
// its ledger must not show in it.
const snapFramesGrid4 = "a4453d5969c3c99a6844b7603379a1c89135c9428ca4e3e397f11148fd3d64f3"

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
// that frames are canonical: at every event boundary, Snapshot → Restore →
// Snapshot gives back the same bytes.
func TestSnapshotFormatFrozen(t *testing.T) {
	build := frozenSim(t)
	s, b := build(), build()
	written := sha256.New()
	frames := 0
	frame := func() {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", frames, err)
		}
		written.Write(snap)
		if err := b.Restore(snap); err != nil {
			t.Fatalf("restore of frame %d: %v", frames, err)
		}
		again, err := b.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of restored frame %d: %v", frames, err)
		}
		if !bytes.Equal(again, snap) {
			t.Fatalf("frame %d: a restored engine writes %d bytes that differ from the %d it read", frames, len(again), len(snap))
		}
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
}

// TestSnapshotQueueOrderFixture restores a frame written before the event
// section was canonical — frozenSim's run after 151 events, its events in
// queue order — and requires the continuation to finish exactly as the
// uninterrupted run does. Rewriting the restored state gives the same
// number of bytes in canonical order, which here differs from the fixture.
func TestSnapshotQueueOrderFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/queue-order.frame")
	if err != nil {
		t.Fatal(err)
	}
	build := frozenSim(t)
	want := build().Run()
	for _, mode := range []async.ExecutionMode{async.ModeSingle, async.ModeMulti} {
		s := build()
		if err := s.Restore(fixture); err != nil {
			t.Fatal(err)
		}
		again, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(fixture) || bytes.Equal(again, fixture) {
			t.Fatalf("rewritten fixture: %d bytes (fixture %d), identical=%v; want the same length in a different order",
				len(again), len(fixture), bytes.Equal(again, fixture))
		}
		if got := s.WithMode(mode).Run(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: the fixture's continuation differs from the uninterrupted run", mode)
		}
	}
}
