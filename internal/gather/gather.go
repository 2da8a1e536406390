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
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/slab"
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
	run     *run

	// Node binding: derived from (cov, me) at Rebind, never serialized.
	bound   bool
	me      graph.NodeID
	trees   []treeRef // cov.TreeOf(me), ascending by cluster
	stride  int       // row length in bytes
	nMember int       // len(cov.MemberOf(me))

	sess []sessionState // by slot, in first-sight order
	st   []byte         // len(sess) rows
}

// treeRef is this node's place on one cluster tree, resolved once at bind
// so no event searches the cluster tree again: the record's offset in a
// row, membership, and the tree parent and children the convergecast and
// the broadcast travel to.
type treeRef struct {
	id       cover.ClusterID
	off      int32          // record offset in a row
	member   bool           // me is a member (terminal) of the cluster
	parent   graph.NodeID   // -1 at the root
	children []graph.NodeID // ascending; the cluster tree's own storage
}

// run holds the slabs every copy of one New value carves from: the node
// layouts at bind, and the session table and rows as they grow.
type run struct {
	trees slab.Slab[treeRef]
	bytes slab.Slab[byte]
	sess  slab.Slab[sessionState]
}

var _ async.Module = (*Module)(nil)
var _ async.ModuleState = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// New creates the per-node module. stageOf maps sessions to link stages
// (nil = all zero).
//
// A run that hosts the module on many nodes builds them as copies of one
// New value, taken before any of them is bound: the copies share its
// callbacks — which tell the nodes apart by the *async.Node each call
// carries — and its slabs, from which each copy binds its node's layout
// and grows its rows. The run then allocates module state per run, not
// per node.
func New(proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) *Module {
	if stageOf == nil {
		stageOf = func(int) int { return 0 }
	}
	return &Module{proto: proto, cov: cov, cb: cb, stageOf: stageOf, run: &run{}}
}

// bind fixes the node this module serves and derives its layout into the
// run's slabs.
func (m *Module) bind(me graph.NodeID) {
	m.bound = true
	m.me = me
	ids := m.cov.TreeOf(me)
	member := m.cov.MemberOf(me)
	m.nMember = len(member)
	m.trees = m.run.trees.Carve(len(ids))
	for _, cid := range ids {
		cl := m.cov.Cluster(cid)
		t := treeRef{id: cid, off: int32(m.stride), parent: -1, children: cl.ChildrenOf(me)}
		if len(member) > 0 && member[0] == cid { // both lists ascend
			t.member = true
			member = member[1:]
		}
		if cl.Root != me {
			t.parent, _ = cl.ParentOf(me)
		}
		m.trees = append(m.trees, t)
		m.stride += 1 + (len(t.children)+7)/8
	}
}

// Start implements async.Module.
func (*Module) Start(*async.Node) {}

// Rebind implements async.Rebinder: the engine binds the module to its node
// once, when it builds the handler.
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
	m.sess = slab.Push(&m.run.sess, m.sess, sessionState{id: session})
	n := len(m.st)
	m.st = m.run.bytes.Grow(m.st, m.stride)[:n+m.stride]
	clear(m.st[n:])
	return len(m.sess) - 1
}

// clusterIndex returns c's position in trees; gather traffic only travels
// along cluster trees, so a miss is a routing bug.
func (m *Module) clusterIndex(c cover.ClusterID) int {
	for ci := range m.trees {
		if m.trees[ci].id == c {
			return ci
		}
	}
	panic(fmt.Sprintf("gather: node %d is not on the tree of cluster %d", m.me, c))
}

// rec returns the offset of (slot, ci)'s record in st.
func (m *Module) rec(slot, ci int) int { return slot*m.stride + int(m.trees[ci].off) }

// Begin announces the session at this node: every cluster tree this node
// participates in becomes live here. Nonterminal nodes (pure relays) count
// as locally done. Idempotent. Every tree participant must eventually call
// Begin (or MarkDone) for every session, or convergecasts stall.
func (m *Module) Begin(n *async.Node, session int) {
	slot := m.slot(session)
	if m.sess[slot].began {
		return
	}
	m.sess[slot].began = true
	for ci := range m.trees {
		f := fBegan
		if !m.trees[ci].member {
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
	for ci := range m.trees {
		if !m.trees[ci].member {
			continue
		}
		m.st[m.rec(slot, ci)] |= fLocalDone
		m.maybeReport(n, slot, ci)
	}
	m.maybeFire(n, slot)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	c, session := decPayload(msg.Body)
	ci := m.clusterIndex(c)
	slot := m.slot(session)
	switch msg.Body.Kind {
	case kindDoneUp:
		i, ok := slices.BinarySearch(m.trees[ci].children, from)
		if !ok {
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
	t := &m.trees[ci]
	for i := range t.children {
		if m.st[r+1+i/8]&(1<<uint(i%8)) == 0 {
			return
		}
	}
	m.st[r] |= fReported
	if t.parent < 0 {
		m.confirm(n, slot, ci)
		return
	}
	session := m.sess[slot].id
	n.Send(t.parent, async.Msg{Proto: m.proto, Stage: m.stageOf(session), Body: encPayload(kindDoneUp, t.id, session)})
}

// confirm marks the cluster complete at this node and forwards the
// broadcast to tree children.
func (m *Module) confirm(n *async.Node, slot, ci int) {
	r := m.rec(slot, ci)
	if m.st[r]&fConfirmed != 0 {
		return
	}
	m.st[r] |= fConfirmed
	t := &m.trees[ci]
	session := m.sess[slot].id
	for _, ch := range t.children {
		n.Send(ch, async.Msg{Proto: m.proto, Stage: m.stageOf(session), Body: encPayload(kindConfirmDown, t.id, session)})
	}
	if t.member {
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

// stagedGather runs Theorem 3.2's staged gather: stage i learns that the
// (i+1)·d-neighborhood is done, by gathering "stage i-1 done" in the
// d-cover. Sessions used are base+0 … base+(L-1).
type stagedGather struct {
	Mod  *Module
	L    int // number of stages ℓ
	Base int // first session id
	// Final fires when the d·L-neighborhood is done with P.
	Final func(n *async.Node)

	marked bool
	stage  int
}

// Begin announces all chain sessions at this node (relays included).
func (ch *stagedGather) Begin(n *async.Node) {
	for i := 0; i < ch.L; i++ {
		ch.Mod.Begin(n, ch.Base+i)
	}
}

// MarkDone records local completion of P, starting stage 0.
func (ch *stagedGather) MarkDone(n *async.Node) {
	if ch.marked {
		return
	}
	ch.marked = true
	ch.Begin(n)
	ch.Mod.MarkDone(n, ch.Base)
}

// OnNeighborhoodDone must be called from the owner's Callbacks for sessions
// in [Base, Base+L); it advances the chain and fires Final at the end.
func (ch *stagedGather) OnNeighborhoodDone(n *async.Node, session int) {
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
