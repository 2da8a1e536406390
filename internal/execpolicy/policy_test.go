package execpolicy

import (
	"runtime"
	"testing"
)

// withProcs runs f under a pinned GOMAXPROCS, restoring the old value —
// the policy functions read GOMAXPROCS, so every test must control it.
func withProcs(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestDefaultWorkers(t *testing.T) {
	withProcs(3, func() {
		if w := DefaultWorkers(); w != 3 {
			t.Fatalf("DefaultWorkers at 3 CPUs = %d", w)
		}
	})
	withProcs(maxWorkers+8, func() {
		if w := DefaultWorkers(); w != maxWorkers {
			t.Fatalf("DefaultWorkers must cap at MaxWorkers, got %d", w)
		}
	})
}

func TestValidateWorkers(t *testing.T) {
	ValidateWorkers("engine", 1) // must not panic
	for _, k := range []int{0, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ValidateWorkers(%d) should panic", k)
				}
			}()
			ValidateWorkers("engine", k)
		}()
	}
}

func TestAutoWorkers(t *testing.T) {
	withProcs(2, func() {
		if w := AutoWorkers(8); w != 2 {
			t.Fatalf("AutoWorkers must clamp an oversubscribed pool to GOMAXPROCS, got %d", w)
		}
		if w := AutoWorkers(1); w != 1 {
			t.Fatalf("AutoWorkers(1) = %d", w)
		}
	})
}

func TestAsyncAuto(t *testing.T) {
	withProcs(4, func() {
		cases := []struct {
			name      string
			workers   int
			links     int
			lookahead float64
			cloneable bool
			want      AsyncChoice
		}{
			{"one worker", 1, autoMultiLinks, 1, true, AsyncSerial},
			{"small graph", 4, autoMultiLinks - 1, 1, true, AsyncSerial},
			{"wide lookahead", 4, autoMultiLinks, autoMinLookahead, true, AsyncWindows},
			{"tiny lookahead, cloneable", 4, autoMultiLinks, autoMinLookahead / 2, true, AsyncSerial},
			{"tiny lookahead, opaque state", 4, autoMultiLinks, autoMinLookahead / 2, false, AsyncSerial},
		}
		for _, c := range cases {
			if got := AsyncAuto(c.workers, c.links, c.lookahead, c.cloneable); got != c.want {
				t.Errorf("%s: AsyncAuto = %v, want %v", c.name, got, c.want)
			}
		}
	})
	// The clamp applies inside Auto too: a big configured pool on one CPU
	// must not volunteer parallelism.
	withProcs(1, func() {
		if got := AsyncAuto(8, autoMultiLinks, 1, true); got != AsyncSerial {
			t.Fatalf("AsyncAuto on 1 CPU = %v, want AsyncSerial", got)
		}
	})
}

// TestHugeGraphGate pins the huge-graph Auto thresholds and the gate's
// shape: drifting either constant or the lookahead×links product test
// changes which mode million-link benchmarks silently run under.
func TestHugeGraphGate(t *testing.T) {
	if autoHugeLinks != 1<<21 {
		t.Fatalf("AutoHugeLinks drifted to %d", autoHugeLinks)
	}
	if autoHugeEventsPerWindow != 4096 {
		t.Fatalf("AutoHugeEventsPerWindow drifted to %d", autoHugeEventsPerWindow)
	}
	withProcs(4, func() {
		tiny := autoMinLookahead / 2 // below the ordinary windowed gate
		cases := []struct {
			name      string
			links     int
			lookahead float64
			cloneable bool
			want      AsyncChoice
		}{
			// At the huge threshold, tiny lookahead × 2^21 links = 2^12
			// expected events — exactly the gate.
			{"huge graph, product at gate", autoHugeLinks, tiny, false, AsyncWindows},
			{"huge graph, product below gate", autoHugeLinks, tiny / 2, false, AsyncSerial},
			{"huge graph, product below gate, cloneable", autoHugeLinks, tiny / 2, true, AsyncSerial},
			{"just under huge", autoHugeLinks - 1, tiny, false, AsyncSerial},
			{"just under huge, cloneable", autoHugeLinks - 1, tiny, true, AsyncSerial},
		}
		for _, c := range cases {
			if got := AsyncAuto(4, c.links, c.lookahead, c.cloneable); got != c.want {
				t.Errorf("%s: AsyncAuto = %v, want %v", c.name, got, c.want)
			}
		}
	})
}

func TestLockstepMulti(t *testing.T) {
	withProcs(4, func() {
		if !LockstepMulti(4, autoMultiNodes) {
			t.Fatal("big graph with a real pool should go parallel")
		}
		if LockstepMulti(4, autoMultiNodes-1) {
			t.Fatal("small graph should stay serial")
		}
		if LockstepMulti(1, autoMultiNodes) {
			t.Fatal("one worker should stay serial")
		}
	})
	withProcs(1, func() {
		if LockstepMulti(8, autoMultiNodes) {
			t.Fatal("oversubscribed pool on 1 CPU should stay serial in Auto")
		}
	})
}

func TestAutoShards(t *testing.T) {
	cases := []struct {
		procs, links, want int
	}{
		{8, 0, 1},
		{8, autoShardLinks - 1, 1},                   // below the gate: never shard
		{8, autoShardLinks, 2},                       // at the gate: 4M links = 2 shards
		{8, 4 * autoShardLinksPerShard, 4},           // grows with the graph
		{2, 8 * autoShardLinksPerShard, 2},           // clamped to processors
		{64, 64 * autoShardLinksPerShard, maxShards}, // clamped to the process cap
		{1, 1 << 30, 1},                              // single core: sharding never wins
	}
	for _, c := range cases {
		if got := AutoShards(c.procs, c.links); got != c.want {
			t.Errorf("AutoShards(procs=%d, links=%d) = %d, want %d", c.procs, c.links, got, c.want)
		}
	}
}
