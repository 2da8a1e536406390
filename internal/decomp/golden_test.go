package decomp

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/graph"
)

// This file carries a faithful copy of the seed's map-based builder as a
// reference implementation, and asserts the dense builder produces
// identical clusters, tree parents, and depths on the generator suite. The
// dense rewrite is a data-layout change only; any divergence here is a
// semantics regression.

type refTree struct {
	root     graph.NodeID
	parent   map[graph.NodeID]graph.NodeID
	children map[graph.NodeID][]graph.NodeID
	depthOf  map[graph.NodeID]int
}

func (t *refTree) has(v graph.NodeID) bool {
	if v == t.root {
		return true
	}
	_, ok := t.parent[v]
	return ok
}

type refCluster struct {
	label   uint64
	color   int
	members []graph.NodeID
	tree    *refTree
}

type refState struct {
	g      *graph.Graph
	k      int
	b      int
	alive  []bool
	label  []uint64
	trees  map[uint64]*refTree
	member map[uint64]map[graph.NodeID]bool
}

type refSeed struct {
	node  graph.NodeID
	label uint64
}

func refBuild(g *graph.Graph, k int) [][]*refCluster {
	living := make([]bool, g.N())
	for i := range living {
		living[i] = true
	}
	remaining := g.N()
	var colors [][]*refCluster
	for color := 0; remaining > 0; color++ {
		clusters := refOnePartition(g, k, living)
		cleared := 0
		for _, c := range clusters {
			c.color = color
			for _, v := range c.members {
				living[v] = false
				cleared++
			}
		}
		remaining -= cleared
		colors = append(colors, clusters)
	}
	return colors
}

func refOnePartition(g *graph.Graph, k int, living []bool) []*refCluster {
	st := &refState{
		g:      g,
		k:      k,
		alive:  make([]bool, g.N()),
		label:  make([]uint64, g.N()),
		trees:  make(map[uint64]*refTree),
		member: make(map[uint64]map[graph.NodeID]bool),
	}
	nLiving := 0
	for v := 0; v < g.N(); v++ {
		if living[v] {
			st.alive[v] = true
			nLiving++
			lab := uint64(v)
			st.label[v] = lab
			st.trees[lab] = &refTree{
				root:     graph.NodeID(v),
				parent:   make(map[graph.NodeID]graph.NodeID),
				children: make(map[graph.NodeID][]graph.NodeID),
				depthOf:  map[graph.NodeID]int{graph.NodeID(v): 0},
			}
			st.member[lab] = map[graph.NodeID]bool{graph.NodeID(v): true}
		}
	}
	if nLiving == 0 {
		return nil
	}
	st.b = bits.Len(uint(g.N()))
	for phase := 0; phase < st.b; phase++ {
		st.runPhase(phase)
	}
	var labels []uint64
	for lab, mem := range st.member {
		if len(mem) > 0 {
			labels = append(labels, lab)
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	clusters := make([]*refCluster, 0, len(labels))
	for _, lab := range labels {
		mem := make([]graph.NodeID, 0, len(st.member[lab]))
		for v := range st.member[lab] {
			mem = append(mem, v)
		}
		sort.Slice(mem, func(i, j int) bool { return mem[i] < mem[j] })
		clusters = append(clusters, &refCluster{label: lab, members: mem, tree: st.trees[lab]})
	}
	return clusters
}

func (st *refState) runPhase(phase int) {
	bit := uint64(1) << uint(phase)
	stopped := make(map[uint64]bool)
	maxSteps := 10 * st.b * st.b
	for step := 0; step < maxSteps; step++ {
		sources := st.activeBlueSources(bit, stopped)
		if len(sources) == 0 {
			return
		}
		dist, claim, parent := st.claimBFS(sources)
		proposals := make(map[uint64][]graph.NodeID)
		for v := 0; v < st.g.N(); v++ {
			id := graph.NodeID(v)
			if !st.alive[v] || st.label[v]&bit == 0 {
				continue
			}
			if dist[v] < 0 || dist[v] > st.k {
				continue
			}
			proposals[claim[v]] = append(proposals[claim[v]], id)
		}
		progressed := false
		var labs []uint64
		for lab := range proposals {
			labs = append(labs, lab)
		}
		sort.Slice(labs, func(i, j int) bool { return labs[i] < labs[j] })
		for _, lab := range labs {
			props := proposals[lab]
			sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
			if 2*len(props)*st.b <= len(st.member[lab]) {
				for _, u := range props {
					st.alive[u] = false
					delete(st.member[st.label[u]], u)
				}
				stopped[lab] = true
				continue
			}
			progressed = true
			for _, u := range props {
				st.absorb(u, lab, parent)
			}
		}
		for lab, mem := range st.member {
			if lab&bit == 0 && len(mem) > 0 && !stopped[lab] && len(proposals[lab]) == 0 {
				stopped[lab] = true
			}
		}
		if !progressed {
			return
		}
	}
	panic("refBuild: phase did not converge")
}

func (st *refState) activeBlueSources(bit uint64, stopped map[uint64]bool) []refSeed {
	var out []refSeed
	for lab, mem := range st.member {
		if lab&bit != 0 || len(mem) == 0 || stopped[lab] {
			continue
		}
		for v := range mem {
			out = append(out, refSeed{node: v, label: lab})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].label != out[j].label {
			return out[i].label < out[j].label
		}
		return out[i].node < out[j].node
	})
	return out
}

func (st *refState) claimBFS(sources []refSeed) (dist []int, claim []uint64, parent []graph.NodeID) {
	n := st.g.N()
	dist = make([]int, n)
	claim = make([]uint64, n)
	parent = make([]graph.NodeID, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	var order, queue []graph.NodeID
	for _, s := range sources {
		if dist[s.node] != 0 {
			dist[s.node] = 0
			claim[s.node] = s.label
			queue = append(queue, s.node)
			order = append(order, s.node)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == st.k {
			continue
		}
		for _, nb := range st.g.Neighbors(v) {
			if dist[nb.Node] < 0 {
				dist[nb.Node] = dist[v] + 1
				queue = append(queue, nb.Node)
				order = append(order, nb.Node)
			}
		}
	}
	for _, u := range order {
		if dist[u] == 0 {
			continue
		}
		best := uint64(1<<63 - 1)
		bestParent := graph.NodeID(-1)
		for _, nb := range st.g.Neighbors(u) {
			w := nb.Node
			if dist[w] == dist[u]-1 && claim[w] < best {
				best = claim[w]
				bestParent = w
			}
		}
		claim[u] = best
		parent[u] = bestParent
	}
	return dist, claim, parent
}

func (st *refState) absorb(u graph.NodeID, lab uint64, parent []graph.NodeID) {
	delete(st.member[st.label[u]], u)
	st.label[u] = lab
	st.member[lab][u] = true
	tree := st.trees[lab]
	var chain []graph.NodeID
	w := u
	for !tree.has(w) {
		chain = append(chain, w)
		w = parent[w]
	}
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		tree.parent[c] = w
		tree.children[w] = append(tree.children[w], c)
		tree.depthOf[c] = tree.depthOf[w] + 1
		w = c
	}
}

// TestDenseMatchesReference is the golden equivalence test: the dense
// builder must produce identical colors, labels, members, tree parents,
// and depths to the seed's map-based semantics on the generator suite.
func TestDenseMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"path64-k3", graph.Path(64), 3},
		{"cycle50-k5", graph.Cycle(50), 5},
		{"grid8x8-k3", graph.Grid(8, 8), 3},
		{"grid10x10-k1", graph.Grid(10, 10), 1},
		{"tree63-k4", specGraph("tree:63"), 4},
		{"er80-k3", graph.RandomConnected(80, 200, 17), 3},
		{"er96-k5", graph.RandomConnected(96, 300, 7), 5},
		{"star40-k2", specGraph("star:40"), 2},
		{"complete20-k1", specGraph("complete:20"), 1},
		{"dumbbell-k3", graph.Dumbbell(8, 10), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Build(tc.g, tc.k)
			want := refBuild(tc.g, tc.k)
			if len(got.Colors) != len(want) {
				t.Fatalf("colors: got %d, want %d", len(got.Colors), len(want))
			}
			for c := range want {
				if len(got.Colors[c]) != len(want[c]) {
					t.Fatalf("color %d: got %d clusters, want %d", c, len(got.Colors[c]), len(want[c]))
				}
				for i, wc := range want[c] {
					gc := got.Colors[c][i]
					if gc.Label != wc.label || gc.Color != wc.color {
						t.Fatalf("color %d cluster %d: got (label=%d,color=%d), want (%d,%d)",
							c, i, gc.Label, gc.Color, wc.label, wc.color)
					}
					if len(gc.Members) != len(wc.members) {
						t.Fatalf("cluster %d: got %d members, want %d", i, len(gc.Members), len(wc.members))
					}
					for j := range wc.members {
						if gc.Members[j] != wc.members[j] {
							t.Fatalf("cluster %d member %d: got %d, want %d", i, j, gc.Members[j], wc.members[j])
						}
					}
					compareTrees(t, gc.Steiner, wc.tree)
				}
			}
		})
	}
}

func compareTrees(t *testing.T, got Steiner, want *refTree) {
	t.Helper()
	if got.Root != want.root {
		t.Fatalf("tree root: got %d, want %d", got.Root, want.root)
	}
	if len(got.Nodes) != len(want.depthOf) {
		t.Fatalf("tree size: got %d, want %d", len(got.Nodes), len(want.depthOf))
	}
	depth := treeDepths(t, got)
	for i, v := range got.Nodes {
		wd, ok := want.depthOf[v]
		if !ok {
			t.Fatalf("node %d in dense tree but not reference", v)
		}
		if depth[v] != wd {
			t.Fatalf("depth of %d: got %d, want %d", v, depth[v], wd)
		}
		gp := got.Parents[i]
		wp, wok := want.parent[v]
		if (gp >= 0) != wok || (wok && gp != wp) {
			t.Fatalf("parent of %d: got %d, want (%d,%v)", v, gp, wp, wok)
		}
	}
}
