package apps

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// Leader is the deterministic leader-election algorithm of Corollary 1.3:
// epochs i = 0, 1, 2, …, where epoch i convergecasts the minimum surviving
// candidate ID inside every cluster of the sparse 2^i-cover and broadcasts
// it back; a candidate that is not the minimum in one of its clusters
// ceases to be a candidate. As soon as some cluster spans the whole graph
// (guaranteed at level ⌈log₂ D⌉ by the covering property), its minimum —
// the global minimum ID, which never stops being a candidate — is
// announced as the leader, and every node outputs it.
//
// The paper builds each epoch's cover inside the algorithm with the
// synchronous construction of [RG20]; here the layered covers are given as
// static input (the same substitution DESIGN.md records for the
// synchronizer) and the algorithm pays the real convergecast/broadcast
// message traffic over the cluster trees.
//
// T(A) = Õ(D), M(A) = Õ(m).
type Leader struct {
	// Covers supplies the layered sparse covers; Level(i) drives epoch i.
	Covers *cover.Layered
	// SpansAll[level][cluster] marks clusters containing every node
	// (precompute with LeaderSpansAll).
	SpansAll [][]bool

	epoch     int
	candidate bool
	done      bool
	st        map[lcKey]*leadState
	out       sendQueue
}

type lcKey struct {
	level   int
	cluster cover.ClusterID
}

type leadState struct {
	reports   int
	minSeen   graph.NodeID
	sent      bool
	began     bool
	verdictIn bool
}

type leadUp struct {
	Level   int
	Cluster cover.ClusterID
	Min     graph.NodeID
}

type leadDown struct {
	Level    int
	Cluster  cover.ClusterID
	Min      graph.NodeID
	IsLeader bool
}

// noCandidate is the identity of the min-aggregation.
const noCandidate = graph.NodeID(1 << 30)

var _ syncrun.Handler = (*Leader)(nil)

// LeaderSpansAll precomputes the spanning-cluster table for a graph.
func LeaderSpansAll(g *graph.Graph, l *cover.Layered) [][]bool {
	out := make([][]bool, len(l.Levels))
	for i, cov := range l.Levels {
		out[i] = make([]bool, len(cov.Clusters))
		for j, cl := range cov.Clusters {
			out[i][j] = len(cl.Members) == g.N()
		}
	}
	return out
}

// Init implements syncrun.Handler.
func (h *Leader) Init(n syncrun.API) {
	h.candidate = true
	h.st = make(map[lcKey]*leadState)
	h.enterEpoch(n, 0)
	h.out.Flush(n)
}

// Pulse implements syncrun.Handler.
func (h *Leader) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	for _, in := range recvd {
		switch in.Body.Kind {
		case kindLeadUp:
			m := decLeadUp(in.Body)
			st := h.entry(m.Level, m.Cluster)
			st.reports++
			if m.Min < st.minSeen {
				st.minSeen = m.Min
			}
			h.maybeReport(n, m.Level, m.Cluster, st)
		case kindLeadDown:
			h.deliverVerdict(n, decLeadDown(in.Body))
		default:
			panic(fmt.Sprintf("apps: leader node %d got kind %d", n.ID(), in.Body.Kind))
		}
	}
	h.out.Flush(n)
}

func (h *Leader) entry(level int, c cover.ClusterID) *leadState {
	k := lcKey{level: level, cluster: c}
	st := h.st[k]
	if st == nil {
		st = &leadState{minSeen: noCandidate}
		h.st[k] = st
	}
	return st
}

// enterEpoch begins epoch i at this node: every cluster tree this node
// participates in at level i becomes live here, and leaves report.
func (h *Leader) enterEpoch(n syncrun.API, i int) {
	if h.done {
		return
	}
	if i > h.Covers.MaxLevel() {
		panic(fmt.Sprintf("apps: leader election ran out of cover levels at node %d", n.ID()))
	}
	h.epoch = i
	cov := h.Covers.Level(i)
	for _, r := range cov.Refs(n.ID()) {
		st := h.entry(i, r.ID)
		st.began = true
		if h.candidate && r.Member && n.ID() < st.minSeen {
			st.minSeen = n.ID()
		}
		h.maybeReport(n, i, r.ID, st)
	}
}

// maybeReport sends the subtree minimum up once all tree children have
// reported (leaves report immediately on epoch entry).
func (h *Leader) maybeReport(n syncrun.API, level int, cid cover.ClusterID, st *leadState) {
	if st.sent || !st.began {
		return
	}
	cov := h.Covers.Level(level)
	r := cov.Ref(n.ID(), cid)
	if st.reports < len(cov.Children(r)) {
		return
	}
	st.sent = true
	if r.Parent < 0 {
		h.deliverVerdict(n, leadDown{
			Level: level, Cluster: cid, Min: st.minSeen,
			IsLeader: h.SpansAll[level][cid],
		})
		return
	}
	h.out.Send(r.Parent, encLeadUp(leadUp{Level: level, Cluster: cid, Min: st.minSeen}))
}

// deliverVerdict handles the broadcast at one tree node: forward to tree
// children, consume locally, and advance the epoch when every member
// cluster of the current level has reported its verdict.
func (h *Leader) deliverVerdict(n syncrun.API, v leadDown) {
	cov := h.Covers.Level(v.Level)
	r := cov.Ref(n.ID(), v.Cluster)
	for _, ch := range cov.Children(r) {
		h.out.Send(ch, encLeadDown(v))
	}
	if !r.Member {
		return // pure relay
	}
	h.entry(v.Level, v.Cluster).verdictIn = true
	if v.IsLeader && !h.done {
		h.done = true
		n.Output(v.Min)
	}
	if v.Min != n.ID() {
		h.candidate = false
	}
	if h.done || v.Level != h.epoch {
		return
	}
	for _, cid := range cov.MemberOf(n.ID()) {
		if !h.entry(v.Level, cid).verdictIn {
			return
		}
	}
	h.enterEpoch(n, v.Level+1)
}
