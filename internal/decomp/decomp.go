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
// epoch-stamped scratch buffers owned by the builder — while each Tree is
// sparse at every phase: build-phase membership is a flat open-addressed
// index over the tree's own nodes, so a growing tree costs O(tree size),
// not O(n), and many clusters can grow at once on a ten-million-node graph
// without multiplying dense arrays. No Go maps are allocated anywhere on
// the build path.
package decomp

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/graph"
)

// Tree is a rooted Steiner tree in G. Terminals are the cluster's member
// nodes; the tree may route through non-member (nonterminal) nodes.
//
// The representation has two phases, both O(tree size). While building,
// membership is a flat open-addressed index from node id to the node's
// position in the insertion-ordered node list, with depth/parent stored
// by position (allocated lazily on the first Attach, so singleton trees
// cost one struct) — O(1) expected Has and Attach with no dense per-graph
// arrays, so a partition growing many trees at once retains memory
// proportional to the sum of tree sizes, not clusters × n. Finalize packs
// the compact form: the sorted node list plus parallel depth/parent arrays
// and CSR child lists indexed by position. Post-finalize accessors resolve
// a node to its position by binary search (O(log size)). Mutation (Attach)
// is only legal before Finalize; ChildrenOf, Nodes, and Edges only after.
type Tree struct {
	Root graph.NodeID

	n      int
	size   int
	height int32
	final  bool

	// nodes lists the tree's nodes: insertion order until Finalize sorts
	// it ascending. nil while the tree is the root singleton.
	nodes []graph.NodeID

	// Build phase, parallel to nodes by insertion position; released by
	// Finalize. bdepth[i]/bparent[i] are the depth and parent node id of
	// nodes[i] (-1 at the root). htab is the open-addressed membership
	// index: linear probing over packed (node, position) words at ≤50%
	// load — a flat slice, not a Go map.
	bdepth  []int32
	bparent []int32
	htab    []int64 // (node << 32) | uint32(position); -1 = empty

	// Finalized compact state, parallel to nodes (positions 0..size-1).
	// The children of the node at position i are
	// childList[childOff[i]:childOff[i+1]], ascending.
	cdepth    []int32
	cparent   []graph.NodeID // -1 at the root
	childOff  []int32
	childList []graph.NodeID
}

// NewTree returns the singleton tree {root} over a graph of n nodes.
func NewTree(n int, root graph.NodeID) *Tree {
	if root < 0 || int(root) >= n {
		panic(fmt.Sprintf("decomp: tree root %d out of range [0,%d)", root, n))
	}
	return &Tree{Root: root, n: n, size: 1}
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

// hfind returns v's position in the build-phase index, or -1. The table is
// never full (load ≤ 50%), so probing terminates at an empty slot.
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
	if 2*(len(t.nodes)+1) > len(t.htab) {
		old := t.htab
		t.htab = make([]int64, 2*len(old))
		for i := range t.htab {
			t.htab[i] = -1
		}
		for _, e := range old {
			if e >= 0 {
				t.hplace(graph.NodeID(e>>32), int32(uint32(e)))
			}
		}
	}
	t.hplace(v, pos)
}

// grow allocates the build-phase arrays on the first Attach.
func (t *Tree) grow() {
	t.nodes = append(make([]graph.NodeID, 0, 8), t.Root)
	t.bdepth = append(make([]int32, 0, 8), 0)
	t.bparent = append(make([]int32, 0, 8), -1)
	t.htab = make([]int64, 16)
	for i := range t.htab {
		t.htab[i] = -1
	}
	t.hplace(t.Root, 0)
}

// Attach adds child to the tree under parent. The parent must already be a
// tree node and the child must not be; calling Attach after Finalize
// panics (Clone an unfinalized copy to mutate further).
func (t *Tree) Attach(child, parent graph.NodeID) {
	if t.final {
		panic("decomp: Attach after Finalize")
	}
	if t.htab == nil {
		t.grow()
	}
	pi := t.hfind(parent)
	if pi < 0 {
		panic(fmt.Sprintf("decomp: Attach parent %d not in tree", parent))
	}
	if t.hfind(child) >= 0 {
		panic(fmt.Sprintf("decomp: Attach child %d already in tree", child))
	}
	d := t.bdepth[pi] + 1
	t.hinsert(child, int32(len(t.nodes)))
	t.nodes = append(t.nodes, child)
	t.bdepth = append(t.bdepth, d)
	t.bparent = append(t.bparent, int32(parent))
	t.size++
	if d > t.height {
		t.height = d
	}
}

// Finalize sorts the node list, packs the compact position-indexed
// depth/parent/child arrays, and releases the O(n) build scratch. It is
// idempotent and returns the tree for chaining. Builders call it once
// construction is done; afterwards the tree is immutable and safe for
// concurrent readers.
func (t *Tree) Finalize() *Tree {
	if t.final {
		return t
	}
	t.final = true
	if t.size == 1 {
		t.bdepth, t.bparent, t.htab = nil, nil, nil
		return t
	}
	// Sort positions by node id, then pack the compact arrays through the
	// permutation.
	perm := make([]int32, t.size)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return t.nodes[perm[a]] < t.nodes[perm[b]] })
	sorted := make([]graph.NodeID, t.size)
	t.cdepth = make([]int32, t.size)
	t.cparent = make([]graph.NodeID, t.size)
	t.childOff = make([]int32, t.size+1)
	for i, p := range perm {
		sorted[i] = t.nodes[p]
		t.cdepth[i] = t.bdepth[p]
		t.cparent[i] = graph.NodeID(t.bparent[p])
	}
	t.nodes = sorted
	// ppos[i] is the position of node i's parent; counting children per
	// parent position, then prefix sums, then a fill in ascending node
	// order so every child list comes out ascending.
	ppos := make([]int32, t.size)
	for i := 0; i < t.size; i++ {
		p := t.cparent[i]
		if p < 0 {
			ppos[i] = -1
			continue
		}
		pp := int32(t.pos(p))
		ppos[i] = pp
		t.childOff[pp+1]++
	}
	for i := 0; i < t.size; i++ {
		t.childOff[i+1] += t.childOff[i]
	}
	t.childList = make([]graph.NodeID, t.size-1)
	next := make([]int32, t.size)
	copy(next, t.childOff[:t.size])
	for i, v := range t.nodes {
		if pp := ppos[i]; pp >= 0 {
			t.childList[next[pp]] = v
			next[pp]++
		}
	}
	t.bdepth, t.bparent, t.htab = nil, nil, nil
	return t
}

// pos returns v's position in the sorted node list, or -1 when v is not in
// the tree. Valid once nodes is sorted (Finalize).
func (t *Tree) pos(v graph.NodeID) int {
	lo, hi := 0, len(t.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.nodes[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.nodes) && t.nodes[lo] == v {
		return lo
	}
	return -1
}

// Clone returns an unfinalized deep copy, ready for further Attach calls
// (cover expansion grows decomposition trees this way). Cloning a
// finalized tree re-expands the compact arrays into build form — still
// O(tree size), never O(n).
func (t *Tree) Clone() *Tree {
	out := &Tree{Root: t.Root, n: t.n, size: t.size, height: t.height}
	if t.size == 1 {
		return out
	}
	out.nodes = append([]graph.NodeID(nil), t.nodes...)
	if t.final {
		out.bdepth = append([]int32(nil), t.cdepth...)
		out.bparent = make([]int32, t.size)
		for i, p := range t.cparent {
			out.bparent[i] = int32(p)
		}
	} else {
		out.bdepth = append([]int32(nil), t.bdepth...)
		out.bparent = append([]int32(nil), t.bparent...)
	}
	tcap := 16
	for tcap < 2*t.size {
		tcap *= 2
	}
	out.htab = make([]int64, tcap)
	for i := range out.htab {
		out.htab[i] = -1
	}
	for i, v := range out.nodes {
		out.hplace(v, int32(i))
	}
	return out
}

// Has reports whether v participates in the tree (as terminal or Steiner
// node).
func (t *Tree) Has(v graph.NodeID) bool {
	if t.final {
		if t.size == 1 {
			return v == t.Root
		}
		return t.pos(v) >= 0
	}
	if t.htab == nil {
		return v == t.Root
	}
	return t.hfind(v) >= 0
}

// Size returns the number of tree nodes.
func (t *Tree) Size() int { return t.size }

// Depth returns the height of the tree (max depth over nodes), cached at
// construction.
func (t *Tree) Depth() int { return int(t.height) }

// DepthAt returns v's hop distance from the root, or -1 when v is not in
// the tree.
func (t *Tree) DepthAt(v graph.NodeID) int {
	if t.final {
		if t.size == 1 {
			if v == t.Root {
				return 0
			}
			return -1
		}
		i := t.pos(v)
		if i < 0 {
			return -1
		}
		return int(t.cdepth[i])
	}
	if t.htab == nil {
		if v == t.Root {
			return 0
		}
		return -1
	}
	i := t.hfind(v)
	if i < 0 {
		return -1
	}
	return int(t.bdepth[i])
}

// ParentOf returns v's parent in the tree; ok=false at the root and for
// nodes outside the tree.
func (t *Tree) ParentOf(v graph.NodeID) (graph.NodeID, bool) {
	if t.final {
		if t.size == 1 {
			return -1, false
		}
		i := t.pos(v)
		if i < 0 || t.cparent[i] < 0 {
			return -1, false
		}
		return t.cparent[i], true
	}
	if t.htab == nil {
		return -1, false
	}
	i := t.hfind(v)
	if i < 0 || t.bparent[i] < 0 {
		return -1, false
	}
	return graph.NodeID(t.bparent[i]), true
}

// ChildrenOf returns v's children in ascending order. Requires Finalize;
// the returned slice must not be mutated.
func (t *Tree) ChildrenOf(v graph.NodeID) []graph.NodeID {
	if !t.final {
		panic("decomp: ChildrenOf before Finalize")
	}
	if t.childOff == nil {
		return nil
	}
	i := t.pos(v)
	if i < 0 {
		return nil
	}
	return t.childList[t.childOff[i]:t.childOff[i+1]]
}

// Nodes returns all tree nodes in ascending order. Requires Finalize; the
// returned slice must not be mutated.
func (t *Tree) Nodes() []graph.NodeID {
	if !t.final {
		panic("decomp: Nodes before Finalize")
	}
	if t.nodes == nil {
		return []graph.NodeID{t.Root}
	}
	return t.nodes
}

// Edges returns the (parent, child) tree edges, sorted by parent then
// child. Requires Finalize.
func (t *Tree) Edges() [][2]graph.NodeID {
	if !t.final {
		panic("decomp: Edges before Finalize")
	}
	out := make([][2]graph.NodeID, 0, t.size-1)
	for i := range t.nodes {
		for _, c := range t.childList[t.childOff[i]:t.childOff[i+1]] {
			out = append(out, [2]graph.NodeID{t.nodes[i], c})
		}
	}
	return out
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
	// Tree spans Members (and possibly nonterminals).
	Tree *Tree
}

// Decomposition is the output of Build.
type Decomposition struct {
	K int
	// Colors[c] lists the clusters of color c.
	Colors [][]*Cluster
}

// Clusters returns all clusters across colors.
func (d *Decomposition) Clusters() []*Cluster {
	var out []*Cluster
	for _, cs := range d.Colors {
		out = append(out, cs...)
	}
	return out
}

// Build computes a k-separated weak-diameter network decomposition of the
// nodes in S (nil means all nodes). Deterministic.
func Build(g *graph.Graph, k int, s []graph.NodeID) *Decomposition {
	if k < 1 {
		panic(fmt.Sprintf("decomp: k must be >= 1, got %d", k))
	}
	living := make([]bool, g.N())
	remaining := 0
	if s == nil {
		for i := range living {
			living[i] = true
		}
		remaining = g.N()
	} else {
		for _, v := range s {
			if !living[v] {
				living[v] = true
				remaining++
			}
		}
	}
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
			st.trees[v] = NewTree(st.n, graph.NodeID(v))
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
			Tree:    st.trees[pairs[i].label].Finalize(),
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
	tree := st.trees[lab]
	// Walk u -> parent(u) -> ... until a node already in the tree; collect
	// the chain, then attach it rootward-first.
	st.chain = st.chain[:0]
	w := u
	for !tree.Has(w) {
		st.chain = append(st.chain, w)
		if st.par[w] < 0 {
			panic("decomp: BFS path did not reach the cluster tree")
		}
		w = graph.NodeID(st.par[w])
	}
	for i := len(st.chain) - 1; i >= 0; i-- {
		c := st.chain[i]
		tree.Attach(c, w)
		w = c
	}
}
