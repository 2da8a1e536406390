package bench

import (
	"runtime"
	"testing"

	"repro/internal/abfs"
	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// Pinned resident footprints on grid3d:32x32x32 (n=32768, 190464 directed
// links), measured by the retainedBytes probe after one completed flood.
// The lockstep pin is the value the compact 32-bit layout shipped with
// (CHANGES.md, "Ten-million-node substrate"); the async pin is E16's
// figure with a queued event as a 24-byte key plus a 72-byte slab cell;
// the graph pin is the 14.75 B/link measured once the CSR entry lost its
// link id and the edge table its endpoint columns (20.69 before). The tests fail at >10%
// growth so a regression in any per-link or per-node table is caught
// before it multiplies by ten million nodes. If a deliberate layout
// change moves a number, re-measure with E16 and update the pin in the
// same commit.
const (
	pinGraphBytesPerLink = 14.8  // 8 B target+edge id, 4 B reverse link, 4 B edge link per edge, offsets
	pinAsyncBytesPerLink = 24.8  // outboxes, seq stamps, wheel, busy/boxes
	pinSyncBytesPerNode  = 101.0 // pulse-buffer cursors, stamps, bitmaps

	// The pa:n=50000,m=4,seed=7 row's engine pins, E16's 129.3 B/link and
	// 657.3 B/node. On a low-diameter power-law graph nearly every link is
	// in flight at once, and the event slab, slot keys, send sink and seal
	// buffer keep that peak population for Reset.
	pinPAAsyncBytesPerLink = 129.3
	pinPASyncBytesPerNode  = 657.3

	// preCompactBytesPerLink is the resident cost of the graph plane plus
	// the async engine per directed link before the compact layout
	// (≈52 B/link of 64-bit Neighbor/EdgeID graph tables + ≈48 B/link of
	// eagerly allocated per-link engine state). The compact layout must keep its ≥1.8×
	// advantage over it.
	preCompactBytesPerLink = 100.0
	footprintHeadroom      = 1.10
)

func TestFootprintPins(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint probe")
	}
	if raceEnabled {
		t.Skip("race shadow state inflates allocation sizes; pins hold on uninstrumented builds")
	}
	const spec = "grid3d:32x32x32"
	g := mustSpec(spec)
	links := float64(g.Links())

	gBytes, err := graphRetainedBytes(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(gBytes) / links; got > pinGraphBytesPerLink*footprintHeadroom {
		t.Errorf("graph plane retains %.2f B/link, pin %.1f (+10%% ceiling %.1f)",
			got, pinGraphBytesPerLink, pinGraphBytesPerLink*footprintHeadroom)
	}
	aBytes := checkEnginePins(t, g, spec, pinAsyncBytesPerLink, pinSyncBytesPerNode)
	checkEnginePins(t, mustSpec("pa:n=50000,m=4,seed=7"), "pa:n=50000,m=4,seed=7", pinPAAsyncBytesPerLink, pinPASyncBytesPerNode)

	// The headline acceptance bar: graph + async engine resident bytes per
	// directed link must stay at least 1.8x below the pre-compact layout.
	if got := float64(gBytes+aBytes) / links; got*1.8 > preCompactBytesPerLink {
		t.Errorf("graph+async retain %.2f B/link; 1.8x bar requires <= %.2f",
			got, preCompactBytesPerLink/1.8)
	}
}

// checkEnginePins holds the async engine's B/link and the lockstep
// runner's B/node on g to their pins plus the headroom, and returns the
// async engine's retained bytes.
func checkEnginePins(t *testing.T, g *graph.Graph, spec string, asyncPin, syncPin float64) int64 {
	t.Helper()
	aBytes := asyncRetainedBytes(g)
	if got := float64(aBytes) / float64(g.Links()); got > asyncPin*footprintHeadroom {
		t.Errorf("%s: async engine retains %.2f B/link, pin %.1f (+10%% ceiling %.1f)",
			spec, got, asyncPin, asyncPin*footprintHeadroom)
	}
	sBytes := syncRetainedBytes(g)
	if got := float64(sBytes) / float64(g.N()); got > syncPin*footprintHeadroom {
		t.Errorf("%s: lockstep engine retains %.2f B/node, pin %.1f (+10%% ceiling %.1f)",
			spec, got, syncPin, syncPin*footprintHeadroom)
	}
	return aBytes
}

// TestGraphFootprintMatchesProbe holds graph.Footprint, the closed-form
// byte count shard workers report as their graph plane, to the settled-heap
// probe within 1%, on a whole graph and on its one-shard Subrange view:
// Footprint's per-column sizes are kept by hand, so a column added, dropped
// or resized without it fails here.
func TestGraphFootprintMatchesProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint probe")
	}
	if raceEnabled {
		t.Skip("race shadow state inflates allocation sizes; pins hold on uninstrumented builds")
	}
	for _, spec := range []string{"grid3d:32x32x32", "er:n=50000,m=200000,seed=3", "pa:n=50000,m=4,seed=7"} {
		g := mustSpec(spec)
		probe, err := graphRetainedBytes(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sub *graph.Graph
		subProbe := retainedBytes(func() any { sub = g.Subrange(0, graph.NodeID(g.N())); return sub })
		for _, c := range []struct {
			name         string
			probe, exact int64
		}{{"whole", probe, g.Footprint()}, {"Subrange", subProbe, sub.Footprint()}} {
			t.Logf("%s %s: probe %d B, Footprint %d B", spec, c.name, c.probe, c.exact)
			if d := c.probe - c.exact; d < 0 || float64(d) > 0.01*float64(c.exact) {
				t.Errorf("%s %s: probe retains %d B, Footprint() says %d B; want agreement within 1%%",
					spec, c.name, c.probe, c.exact)
			}
		}
	}
}

// TestGeneratorAllocPins pins the allocation count of generators across
// the implicit and classic families: every generator emits through one
// exactly preallocated CSR builder, so construction is a fixed handful of
// allocations regardless of size — no per-edge appends, no intermediate
// adjacency maps. A drifting count means an intermediate structure crept
// back in.
func TestGeneratorAllocPins(t *testing.T) {
	cases := []struct {
		spec string
		max  float64
	}{
		{"grid3d:16x16x16", 12},
		{"pa:n=2000,m=3,seed=7", 16},
		{"ring:k=50,c=6", 13},
		{"er:n=2000,m=8000,seed=3", 13},
		{"grid:40x40", 13},
		{"path:1000", 13},
		{"complete:60", 13},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(5, func() { mustSpec(c.spec) }); got > c.max {
			t.Errorf("%s: %v allocs per build, pin %v", c.spec, got, c.max)
		}
	}
}

// Pinned settled bytes per node of the synchronizer stacks after a
// completed run, by stackBytesPerNode: a synchronized BFS from node 0
// (core.NewSynchronizedSim), one τ=4 iteration of the §4 BFS from node 0
// (abfs.IterationStacks), and the synchronized BFS on one-slot
// core.NewNodeHandler stacks, as the benchmark's traced phase builds them,
// each on grid, er and pa (Go 1.24, linux/amd64). Both build their stacks as one batch per run; before the
// abfs iteration did, it kept 7 138, 10 042 and 9 489 B/node on these
// graphs, and every stack kept 98 B/node more while its core held its own
// scratch encoder and decoder for ModeSpec clones. The abfs iteration kept
// 3 940, 7 546 and 6 430 B/node while TBFS held a per-node map of the
// neighbors it had probed. Reading the tree refs in place, where reg and
// gather each copied them out of the cover, moved the pins 8 061 → 7 323,
// 4 978 → 4 313 and 3 626 → 3 127 B/node (synchronized BFS) and 3 892 →
// 3 417, 7 389 → 6 641 and 6 277 → 5 529 B/node (abfs iteration). Keeping
// each cluster tree in one stored form moved them only to 7 318, 4 305
// and 3 119 / 3 412, 6 633 and 5 521 B/node: the trees live in
// the level cache, outside what a stack keeps. Sharing one dispatch table
// per batch of Muxes, where each node kept its own route slice, moved them
// to 6 973, 3 895 and 3 069 / 2 985, 6 263 and 5 151 B/node. Building
// each cover level's modules in place, whose tables read the node's refs
// from the cover where each module copied them and its row layout, moved
// them to 6 469, 3 582 and 2 818 / 2 640, 5 917 and 4 805 B/node; with one
// dispatch table per Schedule, where each one-slot stack built its own,
// the one-slot stacks went 12 880 → 7 991, 8 400 → 4 858 and 7 119 →
// 3 913 B/node. The test fails at >10% growth, like the footprint pins
// above.
var stackBytePins = []struct {
	spec             string
	sync, abfs, slot float64
}{
	{"grid:40x40", 6469, 2640, 7991},
	{"er:n=2000,m=8000,seed=3", 3582, 5917, 4858},
	{"pa:n=2000,m=3,seed=7", 2818, 4805, 3913},
}

// bfsBound is the pulse bound a synchronized BFS from node 0 needs on g.
func bfsBound(g *graph.Graph) int {
	return syncrun.New(g, func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0}} }).Run().Rounds + 2
}

func TestStackBytePins(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint probe")
	}
	if raceEnabled {
		t.Skip("race shadow state inflates allocation sizes; pins hold on uninstrumented builds")
	}
	for _, pin := range stackBytePins {
		g := mustSpec(pin.spec)
		bfs := func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0}} }
		bound := bfsBound(g)
		cfg := core.Config{Graph: g, Bound: bound, Layered: core.BuildLayeredFor(g, bound), Mode: async.ModeSingle}
		sync := stackBytesPerNode(core.NewSynchronizedSim(cfg, bfs))
		iter := stackBytesPerNode(async.New(g, async.SeededRandom{Seed: 1},
			abfs.IterationStacks(g, []graph.NodeID{0}, 4)).WithMode(async.ModeSingle))
		sched := core.NewSchedule(bound)
		slot := stackBytesPerNode(async.New(g, async.SeededRandom{Seed: 1}, func(id graph.NodeID) async.Handler {
			return core.NewNodeHandler(sched, cfg.Layered, bfs(id))
		}).WithMode(async.ModeSingle))
		t.Logf("%s: synchronized BFS %.0f B/node, abfs iteration %.0f B/node, one-slot stacks %.0f B/node", pin.spec, sync, iter, slot)
		if sync > pin.sync*footprintHeadroom || iter > pin.abfs*footprintHeadroom || slot > pin.slot*footprintHeadroom {
			t.Errorf("%s: stacks keep %.0f B/node (synchronized BFS, pin %.0f), %.0f B/node (abfs iteration, pin %.0f) and %.0f B/node (one-slot, pin %.0f); +10%% ceiling",
				pin.spec, sync, pin.sync, iter, pin.abfs, slot, pin.slot)
		}
	}
}

// Pinned settled bytes per node of the cover levels core.BuildLayeredFor
// returns for the stackBytePins graphs and their BFS bounds (Go 1.24,
// linux/amd64): levels 5 up to ℓ(bound)+5, each with its per-node member
// and tree-ref columns. While BuildLayeredFor built every level from 0 and
// the covers kept a per-node list of tree cluster ids, the same call kept
// 1 563, 1 310 and 1 154 B/node. Keeping each tree only as its sorted
// nodes and their parents, 8 B per tree node, moved it 634 → 465, 588 →
// 435 and 441 → 326 B/node; every cover and decomposition cluster had
// kept a 20 B/node finalized tree, with depths and child lists. The test
// fails at >10% growth.
var coverBytePins = []struct {
	spec  string
	bytes float64
}{
	{"grid:40x40", 465},
	{"er:n=2000,m=8000,seed=3", 435},
	{"pa:n=2000,m=3,seed=7", 326},
}

func TestCoverBytePins(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint probe")
	}
	if raceEnabled {
		t.Skip("race shadow state inflates allocation sizes; pins hold on uninstrumented builds")
	}
	defer core.ResetCoverCache()
	for _, pin := range coverBytePins {
		g := mustSpec(pin.spec)
		bound := bfsBound(g)
		core.ResetCoverCache()
		before := settledHeap()
		l := core.BuildLayeredFor(g, bound)
		got := float64(int64(settledHeap())-int64(before)) / float64(g.N())
		runtime.KeepAlive(l)
		t.Logf("%s: covers for bound %d keep %.0f B/node", pin.spec, bound, got)
		if got > pin.bytes*footprintHeadroom {
			t.Errorf("%s: covers for bound %d keep %.0f B/node, pin %.0f; +10%% ceiling", pin.spec, bound, got, pin.bytes)
		}
	}
}

// stackBytesPerNode runs sim to quiescence and reports the settled heap
// bytes per node its handlers keep: what rearming the engine with
// stateless handlers frees, since Reset keeps everything the engine
// itself grew.
func stackBytesPerNode(sim *async.Sim) float64 {
	sim.Run()
	before := settledHeap()
	sim.Reset(async.SeededRandom{Seed: 1}, func(graph.NodeID) async.Handler { return nopHandler{} })
	freed := int64(before) - int64(settledHeap())
	runtime.KeepAlive(sim)
	return float64(freed) / float64(sim.Graph().N())
}

type nopHandler struct{ async.NopAck }

func (nopHandler) Init(*async.Node)                          {}
func (nopHandler) Recv(*async.Node, graph.NodeID, async.Msg) {}
