package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// TestCoverLevelsShared: the level cache builds each cover level once per
// graph and hands every reader the same one. Layered covers for two bounds
// share their common levels, a synchronized run builds no level below
// FirstCoverLevel, and concurrent readers of overlapping bounds get
// identical pointers while their runs read the levels' refs at once.
func TestCoverLevelsShared(t *testing.T) {
	g, err := graph.FromSpec("grid:9x11")
	if err != nil {
		t.Fatal(err)
	}
	defer core.ResetCoverCache()
	checkShared := func(ls ...*cover.Layered) {
		t.Helper()
		top := 0
		for _, l := range ls {
			top = max(top, l.MaxLevel())
		}
		for j := 0; j <= top; j++ {
			want := core.CachedLevel(g, j)
			if (want == nil) != (j < core.FirstCoverLevel) {
				t.Fatalf("level %d built: %v", j, want != nil)
			}
			for i, l := range ls {
				if j <= l.MaxLevel() && l.Levels[j] != want {
					t.Fatalf("layered cover %d holds level %d at %p, the cache at %p", i, j, l.Levels[j], want)
				}
			}
		}
	}

	core.ResetCoverCache()
	checkShared(core.BuildLayeredFor(g, 6), core.BuildLayeredFor(g, 40))

	core.ResetCoverCache()
	bfs := func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: []graph.NodeID{0}} }
	want := core.Synchronize(core.Config{Graph: g, Bound: 24}, bfs)
	checkShared(core.BuildLayeredFor(g, 24))

	core.ResetCoverCache()
	bounds := []int{40, 3, 6, 12, 24, 6, 40, 12}
	got := make([]*cover.Layered, len(bounds))
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = core.BuildLayeredFor(g, b)
			if b >= 24 { // enough pulses for a BFS on g
				res := core.Synchronize(core.Config{Graph: g, Bound: b, Layered: got[i]}, bfs)
				if !reflect.DeepEqual(res.Outputs, want.Outputs) {
					t.Errorf("bound %d: a concurrent run's outputs differ", b)
				}
			}
		}()
	}
	wg.Wait()
	checkShared(got...)
	for i, b := range bounds {
		if top := core.NewSchedule(b).MaxCoverLevel; got[i].MaxLevel() != top {
			t.Errorf("bound %d: covers reach level %d, the schedule's top is %d", b, got[i].MaxLevel(), top)
		}
	}
}
