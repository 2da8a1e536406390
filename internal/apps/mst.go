package apps

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// MST is an event-driven synchronous Borůvka/GHS-style minimum spanning
// tree (the Corollary 1.4 workload; DESIGN.md records the substitution of
// Elkin'20 by this algorithm — same Õ(m) message bound, weaker time
// bound). Edge weights must be distinct (graph.WithRandomWeights), which
// makes the MST unique and every Borůvka merge-cycle a 2-cycle.
//
// Each phase: (A) every node exchanges fragment IDs with its neighbors,
// (B) each fragment convergecasts its minimum-weight outgoing edge (MOE)
// to the fragment leader, which broadcasts the decision, (C) the MOE
// endpoint sends CONNECT across it, (barrier) (D) merge cores — edges
// whose two fragments chose each other — elect the max-ID endpoint as the
// new leader, which broadcasts the new fragment ID over the merged tree,
// (barrier) and the next phase begins. The two global barriers run on a
// given BFS tree and make the phases lockstep, so fragments never observe
// mixed-phase traffic. A fragment whose MOE search finds no outgoing edge
// spans the graph: every node outputs and the algorithm quiesces.
type MST struct {
	// Barrier is the global BFS tree, a one-cluster cover, used for phase
	// barriers (built once, like β's tree; its construction is
	// initialization).
	Barrier *cover.Cover
	// Weights maps edge IDs to weights (local knowledge: a node only ever
	// reads its incident edges). Weights must be distinct.
	Weights []int64

	frag     graph.NodeID
	parent   graph.NodeID // fragment-tree parent (-1 at the leader)
	treeNbrs map[graph.NodeID]bool
	phase    int
	fragDone bool
	st       map[int]*mstPhase
	bar      map[int]*mstBarrier
	out      sendQueue
}

// MSTResult is the per-node output. The MST is exactly the parent edges:
// a node's tree neighbors are its parent and the nodes whose parent it is.
type MSTResult struct {
	// Frag is the final fragment ID (identical across nodes).
	Frag graph.NodeID
	// Parent is this node's MST-tree parent (-1 at the leader).
	Parent graph.NodeID
}

type mstPhase struct {
	tests       map[graph.NodeID]graph.NodeID // neighbor -> its fragment
	moeReports  int
	best        mstEdge
	reported    bool
	decided     bool
	decision    mstEdge
	decisionNon bool
	sentConnect graph.NodeID // -1 = none
	connectIn   map[graph.NodeID]bool
	merged      bool // stage D entered (connect edges adopted)
	// pendingNF buffers a NewFrag broadcast that arrived before this
	// node's first barrier release (it travels the fragment tree, not the
	// barrier tree, so it can be early).
	pendingNF     *mstNewFrag
	pendingNFFrom graph.NodeID
}

type mstBarrier struct {
	reports int
	sent    bool
	ready   bool
	done    bool
}

// mstEdge is an MOE candidate; None marks the identity of min-aggregation.
type mstEdge struct {
	W    int64
	U, V graph.NodeID // U is the in-fragment endpoint
	None bool
}

func (e mstEdge) better(o mstEdge) bool {
	if e.None || o.None {
		return !e.None
	}
	return e.W < o.W
}

// mstDecision is the decoded fragment-wide MOE broadcast.
type mstDecision struct {
	Phase int
	Best  mstEdge
}

// mstNewFrag is the decoded new-fragment-ID broadcast.
type mstNewFrag struct {
	Phase int
	Frag  graph.NodeID
}

var _ syncrun.Handler = (*MST)(nil)

// Init implements syncrun.Handler.
func (h *MST) Init(n syncrun.API) {
	h.frag = n.ID()
	h.parent = -1
	h.treeNbrs = make(map[graph.NodeID]bool)
	h.st = make(map[int]*mstPhase)
	h.bar = make(map[int]*mstBarrier)
	h.enterPhase(n, 1)
	h.out.Flush(n)
}

func (h *MST) phaseState(k int) *mstPhase {
	st := h.st[k]
	if st == nil {
		st = &mstPhase{
			tests:       make(map[graph.NodeID]graph.NodeID),
			best:        mstEdge{None: true},
			sentConnect: -1,
			connectIn:   make(map[graph.NodeID]bool),
		}
		h.st[k] = st
	}
	return st
}

func (h *MST) barrier(seq int) *mstBarrier {
	b := h.bar[seq]
	if b == nil {
		b = &mstBarrier{}
		h.bar[seq] = b
	}
	return b
}

// enterPhase starts stage A: fragment-ID exchange with every neighbor.
func (h *MST) enterPhase(n syncrun.API, k int) {
	h.phase = k
	for _, nb := range n.Neighbors() {
		h.out.Send(nb.Node, wire.Body{Kind: kindMSTTest, A: int64(k), B: int64(h.frag)})
	}
	h.maybeLocalMOE(n, k)
}

// Pulse implements syncrun.Handler.
func (h *MST) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	for _, in := range recvd {
		switch in.Body.Kind {
		case kindMSTTest:
			phase := int(in.Body.A)
			st := h.phaseState(phase)
			st.tests[in.From] = graph.NodeID(in.Body.B)
			h.maybeLocalMOE(n, phase)
		case kindMSTMOE:
			phase, best := decMSTEdge(in.Body)
			st := h.phaseState(phase)
			st.moeReports++
			if best.better(st.best) {
				st.best = best
			}
			h.maybeReportMOE(n, phase)
		case kindMSTDecision:
			phase, best := decMSTEdge(in.Body)
			h.onDecision(n, mstDecision{Phase: phase, Best: best})
		case kindMSTConnect:
			h.phaseState(int(in.Body.A)).connectIn[in.From] = true
		case kindMSTNewFrag:
			h.onNewFrag(n, in.From, mstNewFrag{Phase: int(in.Body.A), Frag: graph.NodeID(in.Body.B)})
		case kindMSTBarUp:
			h.barrier(int(in.Body.A)).reports++
		case kindMSTBarDown:
			h.onBarrierRelease(n, int(in.Body.A))
		default:
			panic(fmt.Sprintf("apps: MST node %d got kind %d", n.ID(), in.Body.Kind))
		}
	}
	h.pump(n)
	h.out.Flush(n)
}

// pump advances whatever barrier progress became possible this pulse. The
// barrier report is gated on an empty send queue: everything this node
// queued earlier is then already delivered or one hop away, so the barrier
// release (two hops at minimum) cannot overtake any phase message.
func (h *MST) pump(n syncrun.API) {
	for seq := 0; seq <= 2*h.phase+1; seq++ {
		h.maybeBarrierReport(n, seq)
	}
}

func (h *MST) maybeBarrierReport(n syncrun.API, seq int) {
	b := h.barrier(seq)
	if b.sent || !b.ready || !h.out.Empty() {
		return
	}
	r := h.Barrier.Ref(n.ID(), 0)
	if b.reports < len(h.Barrier.Children(r)) {
		return
	}
	b.sent = true
	if r.Parent >= 0 {
		h.out.Send(r.Parent, wire.Body{Kind: kindMSTBarUp, A: int64(seq)})
		return
	}
	h.onBarrierRelease(n, seq) // root: broadcast and advance locally
}

func (h *MST) onBarrierRelease(n syncrun.API, seq int) {
	b := h.barrier(seq)
	if b.done {
		return
	}
	b.done = true
	for _, ch := range h.Barrier.Children(h.Barrier.Ref(n.ID(), 0)) {
		h.out.Send(ch, wire.Body{Kind: kindMSTBarDown, A: int64(seq)})
	}
	k := seq / 2
	if seq%2 == 0 {
		h.startMerge(n, k)
	} else if !h.fragDone {
		h.enterPhase(n, k+1)
	}
}

// maybeLocalMOE runs once all neighbor fragment IDs for the phase are in:
// compute the local MOE candidate and try to start the convergecast.
func (h *MST) maybeLocalMOE(n syncrun.API, k int) {
	if k != h.phase || h.fragDone {
		return
	}
	st := h.phaseState(k)
	if len(st.tests) < n.Degree() {
		return
	}
	h.maybeReportMOE(n, k)
}

// maybeReportMOE sends the fragment-subtree MOE up once local info and all
// fragment-children reports are in.
func (h *MST) maybeReportMOE(n syncrun.API, k int) {
	if k != h.phase || h.fragDone {
		return
	}
	st := h.phaseState(k)
	if st.reported || len(st.tests) < n.Degree() {
		return
	}
	fragChildren := 0
	for nb := range h.treeNbrs {
		if nb != h.parent {
			fragChildren++
		}
	}
	if st.moeReports < fragChildren {
		return
	}
	// Fold in the local candidate.
	local := mstEdge{None: true}
	for _, nb := range n.Neighbors() {
		if st.tests[nb.Node] == h.frag {
			continue
		}
		w := h.Weights[nb.Edge]
		cand := mstEdge{W: w, U: n.ID(), V: nb.Node}
		if cand.better(local) {
			local = cand
		}
	}
	if local.better(st.best) {
		st.best = local
	}
	st.reported = true
	if h.parent >= 0 {
		h.out.Send(h.parent, encMSTEdge(kindMSTMOE, k, st.best))
		return
	}
	// Fragment leader: decide and broadcast.
	h.onDecision(n, mstDecision{Phase: k, Best: st.best})
}

// onDecision handles the fragment-wide MOE broadcast.
func (h *MST) onDecision(n syncrun.API, m mstDecision) {
	st := h.phaseState(m.Phase)
	if st.decided {
		return
	}
	st.decided = true
	st.decision = m.Best
	st.decisionNon = m.Best.None
	for _, nb := range slices.Sorted(maps.Keys(h.treeNbrs)) {
		if nb != h.parent {
			h.out.Send(nb, encMSTEdge(kindMSTDecision, m.Phase, m.Best))
		}
	}
	if m.Best.None {
		// No outgoing edge: the fragment spans the graph. Output.
		h.fragDone = true
		n.OutputBody(encMSTOut(MSTResult{Frag: h.frag, Parent: h.parent}))
	} else if m.Best.U == n.ID() {
		st.sentConnect = m.Best.V
		h.out.Send(m.Best.V, wire.Body{Kind: kindMSTConnect, A: int64(m.Phase)})
	}
	h.barrier(2 * m.Phase).ready = true
}

// startMerge is stage D, entered at the first barrier: adopt connect edges
// into the tree and, at merge cores, elect the new leader and broadcast
// the new fragment ID.
func (h *MST) startMerge(n syncrun.API, k int) {
	st := h.phaseState(k)
	st.merged = true
	if st.decisionNon {
		// Nothing merged; release the second barrier immediately.
		h.barrier(2*k + 1).ready = true
		return
	}
	if st.sentConnect >= 0 {
		h.treeNbrs[st.sentConnect] = true
	}
	maps.Copy(h.treeNbrs, st.connectIn)
	core := st.sentConnect >= 0 && st.connectIn[st.sentConnect]
	if core && n.ID() > st.sentConnect {
		// New leader of the merged fragment.
		h.frag = n.ID()
		h.parent = -1
		for _, nb := range slices.Sorted(maps.Keys(h.treeNbrs)) {
			h.out.Send(nb, wire.Body{Kind: kindMSTNewFrag, A: int64(k), B: int64(h.frag)})
		}
		h.barrier(2*k + 1).ready = true
		return
	}
	if st.pendingNF != nil {
		h.applyNewFrag(n, st.pendingNFFrom, *st.pendingNF)
	}
	// Everyone else waits for mstNewFrag.
}

func (h *MST) onNewFrag(n syncrun.API, from graph.NodeID, m mstNewFrag) {
	st := h.phaseState(m.Phase)
	if !st.merged {
		st.pendingNF = &m
		st.pendingNFFrom = from
		return
	}
	h.applyNewFrag(n, from, m)
}

func (h *MST) applyNewFrag(n syncrun.API, from graph.NodeID, m mstNewFrag) {
	h.frag = m.Frag
	h.parent = from
	for _, nb := range slices.Sorted(maps.Keys(h.treeNbrs)) {
		if nb != from {
			h.out.Send(nb, wire.Body{Kind: kindMSTNewFrag, A: int64(m.Phase), B: int64(m.Frag)})
		}
	}
	h.barrier(2*m.Phase + 1).ready = true
}
