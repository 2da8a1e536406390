package dsync

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/shard"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := Grid(4, 4)
	mk := NewFlood(0)
	sres := RunSync(g, mk)
	if sres.T != g.Diameter() {
		t.Fatalf("flood T = %d, want %d", sres.T, g.Diameter())
	}
	ares := Synchronize(g, sres.Rounds+2, RandomDelays(1), mk)
	for v, want := range sres.Outputs {
		if ares.Outputs[v] != want {
			t.Fatalf("node %d: async %v, sync %v", v, ares.Outputs[v], want)
		}
	}
}

// specGraph builds a graph through the public spec front end.
func specGraph(t *testing.T, spec string) *Graph {
	t.Helper()
	g, err := GraphFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPIBaselines(t *testing.T) {
	g := specGraph(t, "cycle:10")
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2
	for name, res := range map[string]AsyncResult{
		"alpha": SynchronizeAlpha(g, bound, FixedDelays(1), mk),
		"beta":  SynchronizeBeta(g, bound, FixedDelays(1), mk),
		"gamma": SynchronizeGamma(g, bound, FixedDelays(1), mk),
	} {
		for v, want := range sres.Outputs {
			if res.Outputs[v] != want {
				t.Fatalf("%s: node %d mismatch", name, v)
			}
		}
	}
}

func TestPublicAPILeaderAndMST(t *testing.T) {
	g := WithRandomWeights(Grid(4, 4), 3)
	lres := AsyncLeaderElection(g, RandomDelays(2))
	for v := 0; v < g.N(); v++ {
		if lres.Outputs[NodeID(v)] != NodeID(0) {
			t.Fatalf("node %d elected %v", v, lres.Outputs[NodeID(v)])
		}
	}
	mres := AsyncMST(g, RandomDelays(2))
	edges := map[[2]NodeID]bool{}
	for v := 0; v < g.N(); v++ {
		if u, p := NodeID(v), mres.Outputs[NodeID(v)].(MSTResult).Parent; p >= 0 {
			edges[[2]NodeID{min(u, p), max(u, p)}] = true
		}
	}
	if len(edges) != g.N()-1 {
		t.Fatalf("MST edge count %d, want %d", len(edges), g.N()-1)
	}
}

func TestPublicAPIAsyncBFS(t *testing.T) {
	g := specGraph(t, "cycle:12")
	res, err := AsyncBFS(g, []NodeID{0}, RandomDelays(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != g.N() {
		t.Fatalf("outputs %d, want %d", len(res.Outputs), g.N())
	}
	if res.FinalThreshold < g.Diameter() {
		t.Fatalf("final threshold %d < D %d", res.FinalThreshold, g.Diameter())
	}
}

func TestCoverReuseAcrossRuns(t *testing.T) {
	g := Grid(4, 4)
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2
	l := BuildCovers(g, bound)
	a := SynchronizeWithCovers(g, bound, RandomDelays(3), l, mk)
	b := SynchronizeWithCovers(g, bound, RandomDelays(3), l, mk)
	if a.Time != b.Time || a.Msgs != b.Msgs {
		t.Fatal("cover reuse broke determinism")
	}
}

func TestPublicAPIAsyncModes(t *testing.T) {
	g := Grid(5, 5)
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2
	serial := SynchronizeMode(g, bound, FixedDelays(1), AsyncModeSingle, mk)
	multi := SynchronizeMode(g, bound, FixedDelays(1), AsyncModeMulti, mk)
	if !reflect.DeepEqual(serial, multi) {
		t.Fatal("SynchronizeMode results differ across async execution modes")
	}
	bfsSerial, err1 := AsyncBFSMode(g, []NodeID{0}, RandomDelays(4), AsyncModeSingle)
	bfsMulti, err2 := AsyncBFSMode(g, []NodeID{0}, RandomDelays(4), AsyncModeMulti)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(bfsSerial, bfsMulti) {
		t.Fatal("AsyncBFSMode results differ across async execution modes")
	}
}

func TestPublicAPISnapshotReplay(t *testing.T) {
	g := Grid(5, 5)
	mk := NewBFS([]NodeID{0})
	sres := RunSync(g, mk)
	bound := sres.Rounds + 2

	// Step, snapshot, then replay twice through one handle: Restore
	// discards what the handle held, so each Run finishes the same run.
	want := Synchronize(g, bound, RandomDelays(2), mk)
	run := NewSynchronizedRun(g, bound, RandomDelays(2), mk)
	run.RunSteps(100)
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replayer := NewSynchronizedRun(g, bound, RandomDelays(2), mk)
	for i := 0; i < 2; i++ {
		if err := replayer.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := replayer.Run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d diverged from the uninterrupted synchronized run", i)
		}
	}
}

// TestFactoryAllocsPerChunk pins every shipped handler factory at
// O(n/4096) allocations for n handlers: each carves its handlers from a
// slab instead of making one heap object per node.
func TestFactoryAllocsPerChunk(t *testing.T) {
	g := WithRandomWeights(Grid(4, 4), 3)
	leader, _ := NewLeaderElection(g)
	mst, _ := NewMST(g)
	bfs, flood, echo := NewBFS([]NodeID{0}), NewFlood(0), NewEcho(0)
	factories := map[string]func(NodeID) any{
		"bfs":    func(v NodeID) any { return bfs(v) },
		"flood":  func(v NodeID) any { return flood(v) },
		"echo":   func(v NodeID) any { return echo(v) },
		"leader": func(v NodeID) any { return leader(v) },
		"mst":    func(v NodeID) any { return mst(v) },
	}
	for _, name := range shard.Workloads() {
		mk, err := shard.NewWorkload(name, shard.WorkloadConfig{})
		if err != nil {
			t.Fatal(err)
		}
		factories["shard/"+name] = func(v NodeID) any { return mk(v) }
	}
	const n = 1 << 15
	hs := make([]any, n) // a run holds its handlers, and so their chunks
	for name, mk := range factories {
		allocs := testing.AllocsPerRun(3, func() {
			for v := range n {
				hs[v] = mk(NodeID(v))
			}
		})
		if limit := n/4096 + 16; allocs > float64(limit) {
			t.Errorf("%s: %.0f allocations for %d handlers, want at most %d", name, allocs, n, limit)
		}
	}
}

// TestFactoryConcurrentCarve builds handlers from one factory on several
// goroutines at once, as speculative clone targets and core's batches do:
// the slab hands every call its own handler.
func TestFactoryConcurrentCarve(t *testing.T) {
	mk := NewBFS([]NodeID{0})
	const workers, each = 4, 5000
	got := make([][]Algorithm, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range each {
				got[k] = append(got[k], mk(NodeID(v)))
			}
		}()
	}
	wg.Wait()
	seen := map[Algorithm]bool{}
	for _, hs := range got {
		for _, h := range hs {
			if seen[h] {
				t.Fatal("two calls received the same handler")
			}
			seen[h] = true
		}
	}
}

// TestParseSources: a source list is distinct ids in range. A repeated id
// would start the BFS twice at one node and run a different execution, so
// it is refused with an error naming the id.
func TestParseSources(t *testing.T) {
	if got, err := ParseSources("0, 7,3", 8); err != nil || !reflect.DeepEqual(got, []NodeID{0, 7, 3}) {
		t.Fatalf("ParseSources(0, 7,3) = %v, %v", got, err)
	}
	for _, s := range []string{"8", "-1", "x", "", "0,0", "3,1,3"} {
		if _, err := ParseSources(s, 8); err == nil {
			t.Errorf("ParseSources(%q) accepted", s)
		}
	}
	if _, err := ParseSources("3,1,3", 8); err == nil || !strings.Contains(err.Error(), "source 3") {
		t.Errorf("ParseSources(3,1,3): %v, want an error naming source 3", err)
	}
}

// TestAsyncBFSRefusesBadSources: the library entry points check a source
// list as ParseSources does, so a repeated source cannot run a different
// execution.
func TestAsyncBFSRefusesBadSources(t *testing.T) {
	g := Grid(6, 8)
	for _, srcs := range [][]NodeID{{0, 0}, {}, nil, {48}, {-1}, {3, 1, 3}} {
		if _, err := AsyncBFS(g, srcs, RandomDelays(1)); err == nil {
			t.Errorf("AsyncBFS(%v) accepted", srcs)
		}
		if _, err := AsyncBFSMode(g, srcs, RandomDelays(1), AsyncModeSingle); err == nil {
			t.Errorf("AsyncBFSMode(%v) accepted", srcs)
		}
	}
}
