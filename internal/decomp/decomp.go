// Package decomp builds the k-separated weak-diameter network decomposition
// of Rozhon–Ghaffari (Theorem 4.20, Appendix C): O(log n) color classes,
// each a set of clusters pairwise more than k apart, each cluster with a
// Steiner tree of radius O(k·log³n) in G, and every edge of G appearing in
// O(log⁴n) Steiner trees overall.
//
// The builder follows the published phase/step schedule faithfully —
// b = ⌈log₂ n⌉ phases over label bits, each phase a sequence of grow-steps
// in which blue clusters BFS out to distance k and either absorb or kill
// the red nodes that propose — and is deterministic. It executes centrally
// (the asynchronous distributed construction of §4.5 lives in
// internal/abfs and reuses this package's step structure); DESIGN.md
// records this substitution.
//
// Builder state is dense and node-indexed — labels live in [0, n) so
// per-label state is slice-indexed, and the per-grow-step BFS uses
// epoch-stamped scratch buffers owned by the builder — while each growing
// Tree is sparse: its membership is a flat open-addressed index over the
// tree's own nodes, so a growing tree costs O(tree size), not O(n), and
// many clusters can grow at once on a ten-million-node graph without
// multiplying dense arrays. No Go maps are allocated anywhere on the build
// path.
package decomp

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Steiner is a finished Steiner tree in G, the one form a cluster keeps
// its tree in: 8 B per tree node. Terminals are the cluster's member
// nodes; the tree may route through non-member (nonterminal) nodes.
type Steiner struct {
	Root    graph.NodeID
	Nodes   []graph.NodeID // ascending
	Parents []graph.NodeID // Parents[i] is Nodes[i]'s parent, -1 at Root
	Height  int            // the largest depth of a node
}

// Tree builds one Steiner tree: a Tree holding only its root, or
// GrowFrom, starts it; Attach grows it, and Finish returns its stored form.
//
// Membership is a flat open-addressed index from node id to the node's
// insertion position (allocated on the first Attach, so a singleton costs
// one struct): O(1) expected Has and Attach with no dense per-graph
// arrays, so a partition growing many trees at once retains memory
// proportional to the sum of tree sizes, not clusters × n.
type Tree struct {
	root   graph.NodeID
	height int32

	// ents lists the tree's nodes with their parents in insertion order,
	// and depth their depths, -1 for a seeded node not yet asked for.
	// htab is the membership index: linear probing over packed (node,
	// position) words at ≤50% load — a flat slice, not a Go map.
	ents  []treeEnt
	depth []int32
	htab  []int64 // (node << 32) | uint32(position); -1 = empty
}

type treeEnt struct{ node, parent graph.NodeID }

// GrowFrom returns a builder seeded with a stored tree, ready for further
// Attach calls (cover expansion grows decomposition trees this way).
func GrowFrom(s Steiner) *Tree {
	t := &Tree{root: s.Root, height: int32(s.Height)}
	if len(s.Nodes) == 1 {
		return t
	}
	t.ents = make([]treeEnt, len(s.Nodes))
	t.depth = slices.Repeat([]int32{-1}, len(s.Nodes))
	t.htab = newTable(len(s.Nodes))
	for i, v := range s.Nodes {
		t.ents[i] = treeEnt{v, s.Parents[i]}
		if v == s.Root {
			t.depth[i] = 0
		}
		t.hplace(v, int32(i))
	}
	return t
}

// hmix scrambles a node id into a table slot seed (variant of the 32-bit
// finalizer from MurmurHash3).
func hmix(key uint32) uint32 {
	key ^= key >> 16
	key *= 0x7feb352d
	key ^= key >> 15
	key *= 0x846ca68b
	key ^= key >> 16
	return key
}

// newTable returns an empty index with room for size nodes at ≤50% load.
func newTable(size int) []int64 {
	tcap := 16
	for tcap < 2*size {
		tcap *= 2
	}
	return slices.Repeat([]int64{-1}, tcap)
}

// hfind returns v's position, or -1. The table is never full (load ≤ 50%),
// so probing terminates at an empty slot.
func (t *Tree) hfind(v graph.NodeID) int32 {
	mask := uint32(len(t.htab) - 1)
	for i := hmix(uint32(v)) & mask; ; i = (i + 1) & mask {
		e := t.htab[i]
		if e < 0 {
			return -1
		}
		if graph.NodeID(e>>32) == v {
			return int32(uint32(e))
		}
	}
}

// hplace writes (v, pos) into the first free probe slot.
func (t *Tree) hplace(v graph.NodeID, pos int32) {
	mask := uint32(len(t.htab) - 1)
	i := hmix(uint32(v)) & mask
	for t.htab[i] >= 0 {
		i = (i + 1) & mask
	}
	t.htab[i] = int64(v)<<32 | int64(uint32(pos))
}

// hinsert records v at position pos, doubling the table when load would
// exceed 50%.
func (t *Tree) hinsert(v graph.NodeID, pos int32) {
	if 2*(len(t.ents)+1) > len(t.htab) {
		old := t.htab
		t.htab = newTable(len(t.ents) + 1)
		for _, e := range old {
			if e >= 0 {
				t.hplace(graph.NodeID(e>>32), int32(uint32(e)))
			}
		}
	}
	t.hplace(v, pos)
}

// depthAt returns the depth of the node at position i, resolving a seeded
// node's depth, and its ancestors', from its parent chain.
func (t *Tree) depthAt(i int32) int32 {
	if t.depth[i] < 0 {
		t.depth[i] = t.depthAt(t.hfind(t.ents[i].parent)) + 1
	}
	return t.depth[i]
}

// Attach adds child to the tree under parent. The parent must already be a
// tree node and the child must not be.
func (t *Tree) Attach(child, parent graph.NodeID) {
	if t.htab == nil {
		t.ents = append(make([]treeEnt, 0, 8), treeEnt{t.root, -1})
		t.depth = append(make([]int32, 0, 8), 0)
		t.htab = newTable(1)
		t.hplace(t.root, 0)
	}
	pi := t.hfind(parent)
	if pi < 0 {
		panic(fmt.Sprintf("decomp: Attach parent %d not in tree", parent))
	}
	if t.hfind(child) >= 0 {
		panic(fmt.Sprintf("decomp: Attach child %d already in tree", child))
	}
	d := t.depthAt(pi) + 1
	t.hinsert(child, int32(len(t.ents)))
	t.ents = append(t.ents, treeEnt{child, parent})
	t.depth = append(t.depth, d)
	t.height = max(t.height, d)
}

// Splice attaches v to the tree along the path parent(v), parent(parent(v)),
// ... up to the first tree node, rootward-first, and returns chain (scratch
// for the path, reused across calls). A negative parent before the tree is
// reached panics.
func (t *Tree) Splice(v graph.NodeID, parent func(graph.NodeID) graph.NodeID, chain []graph.NodeID) []graph.NodeID {
	chain = chain[:0]
	w := v
	for !t.Has(w) {
		chain = append(chain, w)
		if w = parent(w); w < 0 {
			panic("decomp: BFS path did not reach the cluster tree")
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		t.Attach(chain[i], w)
		w = chain[i]
	}
	return chain
}

// Has reports whether v participates in the tree (as terminal or Steiner
// node).
func (t *Tree) Has(v graph.NodeID) bool {
	if t.htab == nil {
		return v == t.root
	}
	return t.hfind(v) >= 0
}

// Finish returns the tree's stored form, both columns in one allocation.
// The builder must not be used after.
func (t *Tree) Finish() Steiner {
	ents := t.ents
	if ents == nil {
		ents = []treeEnt{{t.root, -1}}
	}
	slices.SortFunc(ents, func(a, b treeEnt) int { return cmp.Compare(a.node, b.node) })
	size := len(ents)
	col := make([]graph.NodeID, 2*size)
	s := Steiner{Root: t.root, Nodes: col[:size:size], Parents: col[size:], Height: int(t.height)}
	for i, e := range ents {
		s.Nodes[i], s.Parents[i] = e.node, e.parent
	}
	return s
}

// Cluster is one decomposition cluster: a set of member (terminal) nodes
// plus its Steiner tree.
type Cluster struct {
	// Label is the final b-bit label shared by members.
	Label uint64
	// Color is the color class index.
	Color int
	// Members lists terminal nodes in ascending order.
	Members []graph.NodeID
	// Steiner spans Members (and possibly nonterminals).
	Steiner
}

// Decomposition is the output of Build.
type Decomposition struct {
	K int
	// Colors[c] lists the clusters of color c.
	Colors [][]*Cluster
}

// Build computes a k-separated weak-diameter network decomposition of all
// of g's nodes. Deterministic.
func Build(g *graph.Graph, k int) *Decomposition {
	if k < 1 {
		panic(fmt.Sprintf("decomp: k must be >= 1, got %d", k))
	}
	living := slices.Repeat([]bool{true}, g.N())
	remaining := g.N()
	d := &Decomposition{K: k}
	st := newPhaseState(g, k)
	maxColors := 4*bits.Len(uint(g.N())) + 4
	for color := 0; remaining > 0; color++ {
		if color >= maxColors {
			panic("decomp: color count exceeded 4·log n — clustering is not halving")
		}
		clusters := st.onePartition(living)
		cleared := 0
		for _, c := range clusters {
			c.Color = color
			for _, v := range c.Members {
				living[v] = false
				cleared++
			}
		}
		if cleared == 0 {
			panic("decomp: partition clustered zero nodes")
		}
		remaining -= cleared
		d.Colors = append(d.Colors, clusters)
	}
	return d
}

// proposal is one (cluster label, proposing red node) pair of a grow-step;
// the same shape doubles as the (label, member) pairs of the final cluster
// assembly.
type proposal struct {
	label uint32
	node  graph.NodeID
}

// phaseState carries the builder's mutable state. One instance serves every
// partition run of a Build: all scratch is dense, node- or label-indexed
// (labels are node ids, so both spaces are [0, n)), and the per-grow-step
// BFS buffers are epoch-stamped instead of being reallocated per step.
type phaseState struct {
	g *graph.Graph
	k int
	b int
	n int

	alive       []bool
	label       []uint32
	memberCount []int32
	trees       []*Tree

	// stoppedStamp[lab] == phaseStamp marks a cluster done for the current
	// phase; propStamp[lab] == epoch marks a proposal seen this grow-step.
	stoppedStamp []int32
	propStamp    []int32

	// Grow-step BFS scratch: entries are valid iff stamp[v] == epoch.
	epoch int32
	stamp []int32
	dist  []int32
	claim []uint32
	par   []int32
	queue []graph.NodeID

	props []proposal
	chain []graph.NodeID
}

func newPhaseState(g *graph.Graph, k int) *phaseState {
	n := g.N()
	return &phaseState{
		g: g, k: k, n: n,
		b:            bits.Len(uint(n)),
		alive:        make([]bool, n),
		label:        make([]uint32, n),
		memberCount:  make([]int32, n),
		trees:        make([]*Tree, n),
		stoppedStamp: make([]int32, n),
		propStamp:    make([]int32, n),
		stamp:        make([]int32, n),
		dist:         make([]int32, n),
		claim:        make([]uint32, n),
		par:          make([]int32, n),
	}
}

// onePartition runs Lemma C.1: clusters at least half of the living nodes
// into >k-separated clusters and returns them. Nodes it kills stay for the
// next color.
func (st *phaseState) onePartition(living []bool) []*Cluster {
	nLiving := 0
	for v := 0; v < st.n; v++ {
		st.alive[v] = living[v]
		if living[v] {
			nLiving++
			st.label[v] = uint32(v)
			st.memberCount[v] = 1
			st.trees[v] = &Tree{root: graph.NodeID(v)}
		} else {
			st.memberCount[v] = 0
			st.trees[v] = nil
		}
		st.stoppedStamp[v] = 0
		st.propStamp[v] = 0
	}
	if nLiving == 0 {
		return nil
	}
	for phase := 0; phase < st.b; phase++ {
		st.runPhase(phase)
	}
	// Survivors with the same label form the clusters: collect (label,
	// member) pairs in one pass and group runs after sorting.
	pairs := st.props[:0]
	for v := 0; v < st.n; v++ {
		if st.alive[v] {
			pairs = append(pairs, proposal{label: st.label[v], node: graph.NodeID(v)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].label != pairs[j].label {
			return pairs[i].label < pairs[j].label
		}
		return pairs[i].node < pairs[j].node
	})
	var clusters []*Cluster
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].label == pairs[i].label {
			j++
		}
		mem := make([]graph.NodeID, 0, j-i)
		for _, p := range pairs[i:j] {
			mem = append(mem, p.node)
		}
		clusters = append(clusters, &Cluster{
			Label:   uint64(pairs[i].label),
			Members: mem,
			Steiner: st.trees[pairs[i].label].Finish(),
		})
		i = j
	}
	st.props = pairs[:0]
	// Invariant (III) aggregate: at least half the living nodes survive.
	survived := 0
	for _, c := range clusters {
		survived += len(c.Members)
	}
	if 2*survived < nLiving {
		panic(fmt.Sprintf("decomp: only %d of %d nodes survived a partition", survived, nLiving))
	}
	return clusters
}

func (st *phaseState) runPhase(phase int) {
	bit := uint32(1) << uint(phase)
	phaseStamp := int32(phase) + 1
	maxSteps := 10 * st.b * st.b // R = O(log² n); early break below
	for step := 0; step < maxSteps; step++ {
		if !st.growStep(bit, phaseStamp) {
			return
		}
	}
	panic("decomp: phase did not converge within R steps")
}

// growStep runs one blue-cluster grow-step of the phase and reports whether
// any cluster absorbed nodes (progress).
func (st *phaseState) growStep(bit uint32, phaseStamp int32) bool {
	// Seed the claim BFS from the living terminals of every non-stopped
	// blue cluster. Scanning nodes in ascending order seeds deterministically.
	st.epoch++
	st.queue = st.queue[:0]
	for v := 0; v < st.n; v++ {
		if !st.alive[v] || st.label[v]&bit != 0 || st.stoppedStamp[st.label[v]] == phaseStamp {
			continue
		}
		st.stamp[v] = st.epoch
		st.dist[v] = 0
		st.claim[v] = st.label[v]
		st.par[v] = -1
		st.queue = append(st.queue, graph.NodeID(v))
	}
	if len(st.queue) == 0 {
		return false
	}
	st.claimBFS()

	// Gather proposals: living red nodes reached within k. The ascending
	// node scan plus the (label, node) sort reproduces the map-based
	// builder's processing order exactly.
	st.props = st.props[:0]
	suffixMask := bit - 1
	for v := 0; v < st.n; v++ {
		if !st.alive[v] || st.label[v]&bit == 0 {
			continue // dead or blue
		}
		if st.stamp[v] != st.epoch || st.dist[v] > int32(st.k) {
			continue
		}
		lab := st.claim[v]
		// Invariant (I'): only same-suffix reds can be within k.
		if st.label[v]&suffixMask != lab&suffixMask {
			panic(fmt.Sprintf("decomp: separation invariant broken at node %d", v))
		}
		st.props = append(st.props, proposal{label: lab, node: graph.NodeID(v)})
		st.propStamp[lab] = st.epoch
	}
	sort.Slice(st.props, func(i, j int) bool {
		if st.props[i].label != st.props[j].label {
			return st.props[i].label < st.props[j].label
		}
		return st.props[i].node < st.props[j].node
	})
	progressed := false
	for i := 0; i < len(st.props); {
		j := i
		for j < len(st.props) && st.props[j].label == st.props[i].label {
			j++
		}
		lab := st.props[i].label
		if 2*(j-i)*st.b <= int(st.memberCount[lab]) {
			// Deny: proposers die; cluster stops for the phase.
			for _, p := range st.props[i:j] {
				st.kill(p.node)
			}
			st.stoppedStamp[lab] = phaseStamp
		} else {
			progressed = true
			for _, p := range st.props[i:j] {
				st.absorb(p.node, lab)
			}
		}
		i = j
	}
	// Clusters that received no proposals at all stop too (nothing within k
	// remains to grab).
	for lab := 0; lab < st.n; lab++ {
		if st.memberCount[lab] > 0 && uint32(lab)&bit == 0 &&
			st.stoppedStamp[lab] != phaseStamp && st.propStamp[lab] != st.epoch {
			st.stoppedStamp[lab] = phaseStamp
		}
	}
	return progressed
}

// claimBFS expands the seeded queue through every node of G (any state) to
// depth k, then resolves claims in BFS order: each node adopts the
// smallest-label claim among predecessors (neighbors one level closer) and
// records the BFS parent toward that cluster.
func (st *phaseState) claimBFS() {
	for head := 0; head < len(st.queue); head++ {
		v := st.queue[head]
		if st.dist[v] == int32(st.k) {
			continue
		}
		for _, nb := range st.g.Neighbors(v) {
			if st.stamp[nb.Node] != st.epoch {
				st.stamp[nb.Node] = st.epoch
				st.dist[nb.Node] = st.dist[v] + 1
				st.queue = append(st.queue, nb.Node)
			}
		}
	}
	for _, u := range st.queue {
		if st.dist[u] == 0 {
			continue
		}
		best := ^uint32(0)
		bestParent := int32(-1)
		for _, nb := range st.g.Neighbors(u) {
			w := nb.Node
			if st.stamp[w] == st.epoch && st.dist[w] == st.dist[u]-1 && st.claim[w] < best {
				best = st.claim[w]
				bestParent = int32(w)
			}
		}
		st.claim[u] = best
		st.par[u] = bestParent
	}
}

// kill removes u from the living set and from its cluster's terminals (its
// tree keeps u as a nonterminal).
func (st *phaseState) kill(u graph.NodeID) {
	st.alive[u] = false
	st.memberCount[st.label[u]]--
}

// absorb moves living red node u into the blue cluster lab, relabeling it
// and splicing the BFS path from u to the cluster into lab's Steiner tree.
func (st *phaseState) absorb(u graph.NodeID, lab uint32) {
	st.memberCount[st.label[u]]--
	st.label[u] = lab
	st.memberCount[lab]++
	st.chain = st.trees[lab].Splice(u, func(w graph.NodeID) graph.NodeID { return graph.NodeID(st.par[w]) }, st.chain)
}
