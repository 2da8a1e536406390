// Package gather implements the information-collecting abstraction of §3.1
// (Theorems 3.1 and 3.2): given a sparse d-cover and a process P that every
// node eventually finishes locally, each node learns when every node in its
// d-neighborhood (or d·ℓ-neighborhood, via chained stages) is done with P.
//
// Per cluster the module runs a convergecast up the cluster tree — a node
// reports once it is locally done and all its tree children have reported —
// followed by a confirmation broadcast from the root. A member node's
// neighborhood is done once every cluster containing it has confirmed,
// because any node within distance d shares at least one cluster with it.
//
// Cost per session: O(1) messages per tree edge per cluster, i.e.
// O(m·log⁴n) messages and O(d·polylog) isolated time (Theorem 3.1).
package gather

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Callbacks receives gather completions.
type Callbacks interface {
	// NeighborhoodDone fires on a member node when, for the given session,
	// every cluster containing it has confirmed cluster-wide completion.
	NeighborhoodDone(n *async.Node, session int)
}

// Wire kinds of gather traffic (namespace: this module's proto). Every
// payload carries A = cluster, B = session.
const (
	kindDoneUp wire.Kind = iota + 1
	kindConfirmDown
)

func encPayload(k wire.Kind, c cover.ClusterID, session int) wire.Body {
	return wire.Body{Kind: k, A: int64(c), B: int64(session)}
}

func decPayload(b wire.Body) (cover.ClusterID, int) {
	return cover.ClusterID(b.A), int(b.B)
}

// Per-(session, cluster) convergecast flags; the cluster's record is this
// byte followed by one childDone bit per tree child.
const (
	fBegan uint8 = 1 << iota
	fLocalDone
	fReported
	fConfirmed
)

// sessionState is the per-session callback state of this node.
type sessionState struct {
	id        int
	confirmed int32 // clusters containing me that confirmed
	began     bool
	markedAll bool
	fired     bool // callback delivered
}

// Module is the per-node gather engine for one cover.
//
// All run state lives in two flat slices. A session gets a compact slot
// the first time this node hears of it (sessions are sparse in id space —
// the synchronizer's barrier sessions are 2p and 2p+1 for a handful of
// pulses p — so slots, never raw ids, index the state). Slot s owns row
// st[s*stride:(s+1)*stride], which holds one record per cluster tree this
// node participates in, in cov.TreeOf(me) order: a flags byte, then one
// childDone bit per entry of that cluster's ChildrenOf(me). Cloning the
// module is therefore two copies, and a snapshot is the slices as they
// stand. Code below addresses records by offset and never holds a
// sub-slice across a callback: callbacks can open sessions, which grows st.
type Module struct {
	proto   async.Proto
	cov     *cover.Cover
	cb      Callbacks
	stageOf func(session int) int

	// Node binding: derived from (cov, me) on first use, never serialized.
	bound   bool
	me      graph.NodeID
	tree    []cover.ClusterID // cov.TreeOf(me), ascending
	isMem   []bool            // isMem[ci]: me is a member (terminal) of tree[ci]
	off     []int32           // off[ci]: cluster ci's record offset in a row
	stride  int               // row length in bytes
	nMember int               // len(cov.MemberOf(me))

	sess []sessionState // by slot, in first-sight order
	st   []byte         // len(sess) rows
}

var _ async.Module = (*Module)(nil)
var _ async.ModuleState = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// New creates the per-node module. stageOf maps sessions to link stages
// (nil = all zero).
func New(proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) *Module {
	if stageOf == nil {
		stageOf = func(int) int { return 0 }
	}
	return &Module{proto: proto, cov: cov, cb: cb, stageOf: stageOf}
}

// bind fixes the node this module serves and derives the row layout. The
// constructor has no node id, so every entry point binds on first use.
func (m *Module) bind(me graph.NodeID) {
	if m.bound {
		return
	}
	m.bound = true
	m.me = me
	m.tree = m.cov.TreeOf(me)
	member := m.cov.MemberOf(me)
	m.nMember = len(member)
	m.isMem = make([]bool, len(m.tree))
	m.off = make([]int32, len(m.tree))
	for ci, cid := range m.tree {
		if len(member) > 0 && member[0] == cid { // both lists ascend
			m.isMem[ci] = true
			member = member[1:]
		}
		m.off[ci] = int32(m.stride)
		m.stride += 1 + (len(m.cov.Cluster(cid).ChildrenOf(me))+7)/8
	}
}

// Start implements async.Module.
func (m *Module) Start(n *async.Node) { m.bind(n.ID()) }

// Rebind implements async.Rebinder: a restored module learns its node here,
// ahead of LoadState.
func (m *Module) Rebind(n *async.Node) { m.bind(n.ID()) }

// Ack implements async.Module.
func (m *Module) Ack(*async.Node, graph.NodeID, async.Msg) {}

// lookup returns the session's slot, or -1. Recent sessions are the live
// ones, so the scan runs newest first.
func (m *Module) lookup(session int) int {
	for s := len(m.sess) - 1; s >= 0; s-- {
		if m.sess[s].id == session {
			return s
		}
	}
	return -1
}

// slot returns the session's slot, opening a zeroed row on first sight.
func (m *Module) slot(session int) int {
	if s := m.lookup(session); s >= 0 {
		return s
	}
	m.sess = append(m.sess, sessionState{id: session})
	m.st = append(m.st, make([]byte, m.stride)...)
	return len(m.sess) - 1
}

// clusterIndex returns c's position in tree; gather traffic only travels
// along cluster trees, so a miss is a routing bug.
func (m *Module) clusterIndex(c cover.ClusterID) int {
	ci := m.cov.TreeIndex(m.me, c)
	if ci < 0 {
		panic(fmt.Sprintf("gather: node %d is not on the tree of cluster %d", m.me, c))
	}
	return ci
}

// rec returns the offset of (slot, ci)'s record in st.
func (m *Module) rec(slot, ci int) int { return slot*m.stride + int(m.off[ci]) }

// Begin announces the session at this node: every cluster tree this node
// participates in becomes live here. Nonterminal nodes (pure relays) count
// as locally done. Idempotent. Every tree participant must eventually call
// Begin (or MarkDone) for every session, or convergecasts stall.
func (m *Module) Begin(n *async.Node, session int) {
	m.bind(n.ID())
	slot := m.slot(session)
	if m.sess[slot].began {
		return
	}
	m.sess[slot].began = true
	for ci := range m.tree {
		f := fBegan
		if !m.isMem[ci] {
			f |= fLocalDone // nonterminals have no process to finish
		}
		m.st[m.rec(slot, ci)] |= f
		m.maybeReport(n, slot, ci)
	}
	// A node in no cluster at all has a trivially-done neighborhood.
	if m.nMember == 0 {
		m.maybeFire(n, slot)
	}
}

// MarkDone records that this node's local process P for the session is
// finished. Implies Begin.
func (m *Module) MarkDone(n *async.Node, session int) {
	m.Begin(n, session)
	slot := m.slot(session)
	if m.sess[slot].markedAll {
		return
	}
	m.sess[slot].markedAll = true
	for ci := range m.tree {
		if !m.isMem[ci] {
			continue
		}
		m.st[m.rec(slot, ci)] |= fLocalDone
		m.maybeReport(n, slot, ci)
	}
	m.maybeFire(n, slot)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	m.bind(n.ID())
	c, session := decPayload(msg.Body)
	ci := m.clusterIndex(c)
	slot := m.slot(session)
	switch msg.Body.Kind {
	case kindDoneUp:
		i := m.cov.Cluster(c).ChildIndex(m.me, from)
		if i < 0 {
			panic(fmt.Sprintf("gather: node %d got a report from non-child %d in cluster %d", m.me, from, c))
		}
		m.st[m.rec(slot, ci)+1+i/8] |= 1 << uint(i%8)
		m.maybeReport(n, slot, ci)
	case kindConfirmDown:
		m.confirm(n, slot, ci)
	default:
		panic(fmt.Sprintf("gather: unknown kind %d", msg.Body.Kind))
	}
}

// maybeReport sends the subtree-done report upward (or starts the
// confirmation broadcast at the root) once this node is locally done, has
// begun, and has heard from every tree child.
func (m *Module) maybeReport(n *async.Node, slot, ci int) {
	r := m.rec(slot, ci)
	if f := m.st[r]; f&fReported != 0 || f&fBegan == 0 || f&fLocalDone == 0 {
		return
	}
	c := m.tree[ci]
	cl := m.cov.Cluster(c)
	for i := range cl.ChildrenOf(m.me) {
		if m.st[r+1+i/8]&(1<<uint(i%8)) == 0 {
			return
		}
	}
	m.st[r] |= fReported
	if cl.Root == m.me {
		m.confirm(n, slot, ci)
		return
	}
	session := m.sess[slot].id
	par, _ := cl.ParentOf(m.me)
	n.Send(par, async.Msg{Proto: m.proto, Stage: m.stageOf(session), Body: encPayload(kindDoneUp, c, session)})
}

// confirm marks the cluster complete at this node and forwards the
// broadcast to tree children.
func (m *Module) confirm(n *async.Node, slot, ci int) {
	r := m.rec(slot, ci)
	if m.st[r]&fConfirmed != 0 {
		return
	}
	m.st[r] |= fConfirmed
	c := m.tree[ci]
	session := m.sess[slot].id
	for _, ch := range m.cov.Cluster(c).ChildrenOf(m.me) {
		n.Send(ch, async.Msg{Proto: m.proto, Stage: m.stageOf(session), Body: encPayload(kindConfirmDown, c, session)})
	}
	if m.isMem[ci] {
		m.sess[slot].confirmed++
		m.maybeFire(n, slot)
	}
}

// maybeFire delivers NeighborhoodDone when every containing cluster has
// confirmed and the local process finished (a member's own completion is
// part of "everyone within distance d is done").
func (m *Module) maybeFire(n *async.Node, slot int) {
	ns := &m.sess[slot]
	if ns.fired {
		return
	}
	if m.nMember > 0 && (!ns.markedAll || int(ns.confirmed) < m.nMember) {
		return
	}
	if m.nMember == 0 && !ns.began {
		return
	}
	ns.fired = true
	m.cb.NeighborhoodDone(n, ns.id)
}

// Done reports whether the session's NeighborhoodDone fired at this node.
func (m *Module) Done(session int) bool {
	s := m.lookup(session)
	return s >= 0 && m.sess[s].fired
}

// Chain runs Theorem 3.2's staged gather: stage i learns that the
// (i+1)·d-neighborhood is done, by gathering "stage i-1 done" in the
// d-cover. Sessions used are base+0 … base+(L-1).
type Chain struct {
	Mod  *Module
	L    int // number of stages ℓ
	Base int // first session id
	// Final fires when the d·L-neighborhood is done with P.
	Final func(n *async.Node)

	marked bool
	stage  int
}

// Begin announces all chain sessions at this node (relays included).
func (ch *Chain) Begin(n *async.Node) {
	for i := 0; i < ch.L; i++ {
		ch.Mod.Begin(n, ch.Base+i)
	}
}

// MarkDone records local completion of P, starting stage 0.
func (ch *Chain) MarkDone(n *async.Node) {
	if ch.marked {
		return
	}
	ch.marked = true
	ch.Begin(n)
	ch.Mod.MarkDone(n, ch.Base)
}

// OnNeighborhoodDone must be called from the owner's Callbacks for sessions
// in [Base, Base+L); it advances the chain and fires Final at the end.
func (ch *Chain) OnNeighborhoodDone(n *async.Node, session int) {
	if session != ch.Base+ch.stage {
		panic(fmt.Sprintf("gather: chain got session %d at stage %d", session, ch.stage))
	}
	ch.stage++
	if ch.stage == ch.L {
		if ch.Final != nil {
			ch.Final(n)
		}
		return
	}
	ch.Mod.MarkDone(n, ch.Base+ch.stage)
}

// Owns reports whether the session belongs to this chain.
func (ch *Chain) Owns(session int) bool {
	return session >= ch.Base && session < ch.Base+ch.L
}
