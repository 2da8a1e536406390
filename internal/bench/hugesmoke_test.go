package bench

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/syncrun"
)

// smokeHeapCeilingMB caps the settled live heap with the graph plane and
// BOTH finished engines still held: a million-node grid3d costs ~124 MB of
// CSR, ~130 MB of async engine, and ~250 MB of lockstep runner + BFS
// handler state + dense outputs. The ceiling has slack for runtime size
// classes but sits far below what the pre-compact (64-bit ids, eager
// per-link slices) layout needed, so a wholesale footprint regression
// fails the smoke even if every unit pin is individually evaded.
const smokeHeapCeilingMB = 1024

// TestMillionNodeSmoke is the CI million-node gate: build a 1M-node
// implicit grid3d, run an async flood and a lockstep BFS to completion,
// and check message counts, BFS depth, and the peak-footprint ceiling.
// It is opt-in (SMOKE_1M=1) because it costs tens of seconds and hundreds
// of megabytes — the dedicated CI job runs it; `go test ./...` skips it.
func TestMillionNodeSmoke(t *testing.T) {
	if os.Getenv("SMOKE_1M") == "" {
		t.Skip("set SMOKE_1M=1 to run the million-node smoke (CI smoke-1m job)")
	}
	g := mustSpec("grid3d:100x100x100")
	if g.N() != 1_000_000 {
		t.Fatalf("n = %d, want 1,000,000", g.N())
	}

	sim := async.New(g, async.Fixed{D: 1}, func(graph.NodeID) async.Handler {
		return &leanFlood{}
	})
	fres := sim.Run()
	// Every node relays the flood exactly once to all its neighbors, so
	// messages equal directed links and every link acks once.
	if fres.Msgs != uint64(g.Links()) || fres.Acks != fres.Msgs {
		t.Errorf("flood msgs/acks = %d/%d, want %d/%d", fres.Msgs, fres.Acks, g.Links(), g.Links())
	}

	r := syncrun.New(g, func(graph.NodeID) syncrun.Handler {
		return &apps.BFS{Sources: []graph.NodeID{0}}
	}).WithDenseOutputs()
	bres := r.Run()
	// From corner 0 the farthest cell is the opposite corner: 3·99 hops.
	if bres.T != 297 {
		t.Errorf("BFS T = %d, want 297", bres.T)
	}
	outs := 0
	for _, set := range bres.OutSet {
		if set {
			outs++
		}
	}
	if outs != g.N() {
		t.Errorf("BFS produced %d outputs, want %d", outs, g.N())
	}

	if mb := settledHeap() / (1 << 20); mb > smokeHeapCeilingMB {
		t.Errorf("settled live heap %d MB exceeds the %d MB ceiling", mb, smokeHeapCeilingMB)
	}
	// Keep everything reachable until after the heap reading.
	runtime.KeepAlive(g)
	runtime.KeepAlive(sim)
	runtime.KeepAlive(r)
}

// TestTenMillionNodeRun is the full-scale run behind DESIGN.md's memory
// model numbers: a ~10M-node grid3d (215³ = 9,938,375 nodes, ~59.4M
// directed links), async flood and lockstep BFS to completion, with
// per-phase wall time, throughput, and retained bytes logged. Opt-in via
// SMOKE_10M=1 and -v; it wants ~5 GB of RAM and a few minutes.
func TestTenMillionNodeRun(t *testing.T) {
	if os.Getenv("SMOKE_10M") == "" {
		t.Skip("set SMOKE_10M=1 to run the ten-million-node measurement")
	}
	const spec = "grid3d:215x215x215"
	t0 := time.Now()
	gBytes, err := graphRetainedBytes(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := mustSpec(spec)
	links, n := float64(g.Links()), float64(g.N())
	t.Logf("graph: n=%d links=%d built twice in %.1fs, retained %.0f MB (%.1f B/link)",
		g.N(), g.Links(), time.Since(t0).Seconds(), float64(gBytes)/(1<<20), float64(gBytes)/links)

	sim := async.New(g, async.Fixed{D: 1}, func(graph.NodeID) async.Handler {
		return &leanFlood{}
	})
	t1 := time.Now()
	fres := sim.Run()
	floodSec := time.Since(t1).Seconds()
	if fres.Msgs != uint64(g.Links()) {
		t.Errorf("flood msgs = %d, want %d", fres.Msgs, g.Links())
	}
	events := fres.Msgs + fres.Acks
	// The engine's retained bytes are the settled-heap drop when it is
	// released (rebuilding a 10M-node engine just to probe it would double
	// the runtime; the release delta measures the same resident set). The
	// KeepAlive pins the engine through the first reading; it is dead —
	// and collected — by the second.
	withSim := settledHeap()
	runtime.KeepAlive(sim)
	aBytes := int64(withSim) - int64(settledHeap())
	t.Logf("flood: %d events in %.1fs (%.2f Mev/s), engine retained %.0f MB (%.1f B/link)",
		events, floodSec, float64(events)/floodSec/1e6, float64(aBytes)/(1<<20), float64(aBytes)/links)

	r := syncrun.New(g, func(graph.NodeID) syncrun.Handler {
		return &apps.BFS{Sources: []graph.NodeID{0}}
	}).WithDenseOutputs()
	t2 := time.Now()
	bres := r.Run()
	bfsSec := time.Since(t2).Seconds()
	if bres.T != 3*214 {
		t.Errorf("BFS T = %d, want %d", bres.T, 3*214)
	}
	withR := settledHeap()
	runtime.KeepAlive(r)
	sBytes := int64(withR) - int64(settledHeap())
	t.Logf("BFS: T=%d, %d msgs in %.1fs (%.2f Mmsg/s), engine retained %.0f MB (%.1f B/node)",
		bres.T, bres.M, bfsSec, float64(bres.M)/bfsSec/1e6, float64(sBytes)/(1<<20), float64(sBytes)/n)
	runtime.KeepAlive(g)
	totalLinks := uint64(g.Links())
	g = nil // the shard phase re-derives everything from the spec; free ~1.2 GB first

	// Sharded attribution: the same flood on K worker processes, each
	// reporting its own graph plane (closed-form sub-CSR bytes), engine
	// delta, and settled heap — the per-process split of the aggregate
	// numbers above (SMOKE_10M_SHARDS overrides K, default 2).
	k := 2
	if s := os.Getenv("SMOKE_10M_SHARDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad SMOKE_10M_SHARDS %q", s)
		}
		k = v
	}
	t3 := time.Now()
	rep, err := shard.Run(shard.Config{
		GraphSpec: spec,
		Workload:  "flood",
		Adversary: "fixed:1",
		Shards:    k,
		Launch:    shard.LaunchProcess,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Msgs != totalLinks {
		t.Errorf("sharded flood msgs = %d, want %d", rep.Result.Msgs, totalLinks)
	}
	st := rep.Stats
	t.Logf("sharded flood (K=%d): %d events in %.1fs wall — windows=%d frames=%d, startup=%.1fs worker=%.1fs comm=%.1fs merge=%.1fs",
		k, st.TotalEvents, time.Since(t3).Seconds(), st.Windows, st.Frames,
		float64(st.StartupNs)/1e9, float64(st.WorkerNs)/1e9, float64(st.CommNs)/1e9, float64(st.MergeNs)/1e9)
	for i, si := range rep.Shards {
		t.Logf("  shard %d: nodes=%d links=%d boundary=%d — graph %.0f MB (%.1f B/link), engine %.0f MB (%.1f B/link), settled heap %d MB",
			i, si.Nodes, si.Links, si.Boundary,
			float64(si.GraphBytes)/(1<<20), float64(si.GraphBytes)/float64(si.Links),
			float64(si.EngineBytes)/(1<<20), float64(si.EngineBytes)/float64(si.Links), si.HeapMB)
	}
}
