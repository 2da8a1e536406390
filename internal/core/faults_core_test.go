package core

import (
	"reflect"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// TestSynchronizeFaultMode pins the synchronizer stack's cross-mode
// determinism under faults: the full Result of a synchronized run with a
// drop schedule must be identical between the serial engine and the
// bounded-lag parallel windows.
func TestSynchronizeFaultMode(t *testing.T) {
	g := graph.Grid(5, 6)
	bound := g.Diameter() + 2
	fs := &async.FaultSchedule{Seed: 13, DropP: 0.15, Budget: 3}
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	adv := async.WithFaults(async.SeededRandom{Seed: 6}, fs)
	want := Synchronize(Config{Graph: g, Bound: bound, Adversary: adv, Mode: async.ModeSingle}, mk)
	got := Synchronize(Config{Graph: g, Bound: bound, Adversary: adv, Mode: async.ModeMulti, Workers: 4}, mk)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("synchronized run under faults differs between Single and Multi")
	}
	if want.Dropped == 0 || want.Retrans == 0 {
		t.Fatalf("schedule exercised nothing: dropped=%d retrans=%d", want.Dropped, want.Retrans)
	}
}

// TestWatchdogVerdicts: a fault-free run must never read as stalled; a
// run whose retransmit budget is exhausted early must.
func TestWatchdogVerdicts(t *testing.T) {
	g := graph.Grid(5, 6)
	bound := g.Diameter() + 2
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }

	res, rep := SynchronizeWatched(Config{Graph: g, Bound: bound, Adversary: async.SeededRandom{Seed: 6}}, mk)
	if rep.IsStalled() {
		t.Fatalf("fault-free run reported stalled: %+v", rep)
	}
	if rep.Nodes != g.N() || rep.Outputs != len(res.Outputs) {
		t.Fatalf("report miscounted: %+v vs %d outputs", rep, len(res.Outputs))
	}

	fs := &async.FaultSchedule{Seed: 5, DropP: 0.4, Budget: 0}
	res, rep = SynchronizeWatched(Config{Graph: g, Bound: bound,
		Adversary: async.WithFaults(async.SeededRandom{Seed: 6}, fs)}, mk)
	if res.Undeliverable == 0 {
		t.Fatal("budget-0 schedule abandoned nothing")
	}
	if !rep.IsStalled() {
		t.Fatalf("starved run not flagged: %+v (outputs=%d of %d)", rep, len(res.Outputs), g.N())
	}
	if rep.Undeliverable != res.Undeliverable {
		t.Fatalf("report undeliverable %d != result %d", rep.Undeliverable, res.Undeliverable)
	}
}

// TestUnknownBoundFaultBilling: the doubling runner must bill fault
// counters across attempts and stop doubling on a stalled quiescence
// instead of retrying forever (a larger bound cannot resurrect a message
// whose budget is spent).
func TestUnknownBoundFaultBilling(t *testing.T) {
	g := graph.Grid(4, 5)
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	fs := &async.FaultSchedule{Seed: 5, DropP: 0.4, Budget: 0}
	res, bound, rep := synchronizeUnknownBoundWatched(g,
		async.WithFaults(async.SeededRandom{Seed: 6}, fs), mk)
	if bound < 8 {
		t.Fatalf("bound = %d", bound)
	}
	if res.Dropped == 0 || res.Undeliverable == 0 {
		t.Fatalf("no fault billing: %+v", res)
	}
	if !rep.IsStalled() {
		t.Fatalf("stall not reported: %+v", rep)
	}

	// Fault-free reference still works and reports clean.
	res, _, rep = synchronizeUnknownBoundWatched(g, async.SeededRandom{Seed: 6}, mk)
	if rep.IsStalled() || res.Dropped != 0 {
		t.Fatalf("clean run misreported: %+v / %+v", res, rep)
	}
	if len(res.Outputs) != g.N() {
		t.Fatalf("clean run incomplete: %d outputs", len(res.Outputs))
	}
}
