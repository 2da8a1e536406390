package cover

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// faultPick deterministically selects k distinct fault nodes from n via a
// multiplicative hash walk.
func faultPick(n, k int, seed uint64) []graph.NodeID {
	picked := make(map[graph.NodeID]bool, k)
	out := make([]graph.NodeID, 0, k)
	x := seed*0x9E3779B97F4A7C15 + 1
	for len(out) < k {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := graph.NodeID((x * 0x2545F4914F6CDD1D) >> 33 % uint64(n))
		if !picked[v] {
			picked[v] = true
			out = append(out, v)
		}
	}
	return out
}

func aliveMask(n int, faulted []graph.NodeID) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	for _, v := range faulted {
		m[v] = false
	}
	return m
}

// TestRepairGolden: a repaired cover must be deeply equal to the cover a
// from-scratch masked build produces over the combined alive set — the
// tentpole invariant of the self-healing construction layer.
func TestRepairGolden(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		d      int
		faults int
	}{
		{"grid10x10-d2", graph.Grid(10, 10), 2, 5},
		{"path64-d4", graph.Path(64), 4, 3},
		{"er80-d3", graph.RandomConnected(80, 200, 17), 3, 6},
		{"tree63-d2", specGraph("tree:63"), 2, 4},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(tc.name, func(t *testing.T) {
				n := tc.g.N()
				base := Build(tc.g, tc.d)
				faulted := faultPick(n, tc.faults, seed)
				rep, st := repair(base, faulted)
				if st.Faulted != tc.faults {
					t.Fatalf("applied %d of %d faults", st.Faulted, tc.faults)
				}
				if st.Reused+st.Dirty != len(base.Clusters) {
					t.Fatalf("reused %d + dirty %d != %d base clusters",
						st.Reused, st.Dirty, len(base.Clusters))
				}
				if st.Rebuilt+st.Dropped != st.Dirty {
					t.Fatalf("rebuilt %d + dropped %d != dirty %d", st.Rebuilt, st.Dropped, st.Dirty)
				}
				scratch := buildMasked(tc.g, tc.d, aliveMask(n, faulted))
				if !reflect.DeepEqual(rep, scratch) {
					t.Fatalf("repaired cover differs from from-scratch masked build (%d vs %d clusters)",
						len(rep.Clusters), len(scratch.Clusters))
				}
			})
		}
	}
}

// TestRepairChainedGolden: repair applied on top of an earlier repair
// must still equal the from-scratch build over the union of both fault
// rounds.
func TestRepairChainedGolden(t *testing.T) {
	g := graph.Grid(9, 11)
	n := g.N()
	base := Build(g, 2)
	r1 := faultPick(n, 4, 3)
	rep1, _ := repair(base, r1)
	r2 := faultPick(n, 4, 9)
	rep2, st := repair(rep1, r2)
	all := append(append([]graph.NodeID(nil), r1...), r2...)
	scratch := buildMasked(g, 2, aliveMask(n, all))
	if !reflect.DeepEqual(rep2, scratch) {
		t.Fatalf("chained repair differs from from-scratch build")
	}
	// Second-round faults overlapping the first are no-ops; the stats
	// must only count newly-applied ones.
	dup := append(append([]graph.NodeID(nil), r1...), r2...)
	rep2b, st2 := repair(rep1, dup)
	if st2.Faulted != st.Faulted {
		t.Fatalf("duplicate faults counted: %d vs %d", st2.Faulted, st.Faulted)
	}
	if !reflect.DeepEqual(rep2b, rep2) {
		t.Fatalf("repair with duplicate faults diverged")
	}
}

// TestRepairLayeredGolden: every level of a repaired layered cover
// matches the from-scratch layered masked build.
func TestRepairLayeredGolden(t *testing.T) {
	g := graph.Grid(8, 8)
	n := g.N()
	base := BuildLayered(g, 4)
	faulted := faultPick(n, 3, 5)
	rep, stats := RepairLayered(base, faulted)
	if len(stats) != len(base.Levels) {
		t.Fatalf("stats for %d levels, want %d", len(stats), len(base.Levels))
	}
	scratch := BuildLayeredMasked(g, 4, aliveMask(n, faulted))
	if !reflect.DeepEqual(rep, scratch) {
		t.Fatalf("repaired layered cover differs from from-scratch build")
	}
}

// TestRepairIsIncremental: a single localized fault on a sizable graph
// must leave most clusters untouched — the whole point of the dirty
// certificate.
func TestRepairIsIncremental(t *testing.T) {
	g := graph.Path(256)
	base := Build(g, 2)
	_, st := repair(base, []graph.NodeID{17})
	if st.Reused == 0 {
		t.Fatalf("single fault rebuilt every one of %d clusters", len(base.Clusters))
	}
	if st.Reused <= st.Dirty {
		t.Fatalf("single fault dirtied %d of %d clusters — certificate too loose",
			st.Dirty, len(base.Clusters))
	}
}

// TestRepairNoOp: faulting only already-dead nodes returns the base
// cover itself, all clusters reused.
func TestRepairNoOp(t *testing.T) {
	g := graph.Path(32)
	base := Build(g, 2)
	rep1, _ := repair(base, []graph.NodeID{5})
	rep2, st := repair(rep1, []graph.NodeID{5, 5})
	if rep2 != rep1 {
		t.Fatalf("no-op repair returned a new cover")
	}
	if st.Faulted != 0 || st.Reused != len(rep1.Clusters) {
		t.Fatalf("no-op repair stats: %+v", st)
	}
}

// TestMaskedCoverProperties: a masked cover still satisfies the covering
// property over the alive subgraph — every alive node's home cluster
// contains its entire alive-restricted d-ball.
func TestMaskedCoverProperties(t *testing.T) {
	g := graph.Grid(8, 8)
	n := g.N()
	faulted := faultPick(n, 6, 11)
	alive := aliveMask(n, faulted)
	cov := buildMasked(g, 2, alive)
	for v := 0; v < n; v++ {
		if !alive[v] {
			if cov.Home(graph.NodeID(v)) != -1 {
				t.Fatalf("dead node %d has a home cluster", v)
			}
			continue
		}
		id := cov.Home(graph.NodeID(v))
		if id < 0 {
			t.Fatalf("alive node %d has no home cluster", v)
		}
		cl := cov.Clusters[id]
		for _, u := range maskedBall(g, graph.NodeID(v), cov.D, alive) {
			if !cl.Has(u) {
				t.Fatalf("home of %d misses alive node %d within masked distance %d", v, u, cov.D)
			}
		}
		// No dead node is ever a member.
		for _, m := range cl.Members {
			if !alive[m] {
				t.Fatalf("cluster %d contains dead member %d", id, m)
			}
		}
	}
}

// maskedBall returns the nodes within masked distance d of v, BFS over
// alive nodes only.
func maskedBall(g *graph.Graph, v graph.NodeID, d int, alive []bool) []graph.NodeID {
	dist := map[graph.NodeID]int{v: 0}
	queue := []graph.NodeID{v}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] == d {
			continue
		}
		for _, nb := range g.Neighbors(u) {
			if !alive[nb.Node] {
				continue
			}
			if _, seen := dist[nb.Node]; !seen {
				dist[nb.Node] = dist[u] + 1
				queue = append(queue, nb.Node)
			}
		}
	}
	return queue
}
