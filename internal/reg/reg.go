// Package reg implements the cluster registration abstraction of §3.2
// (Definition 3.3) with the paper's dirty/waiting edge-marking waves:
//
//   - R(v): registration marks the path from v to the cluster root dirty.
//   - D(v): deregistration converts dirty marks to waiting marks upward
//     until it hits another dirty subtree, the root, or a node whose own
//     client is still mid-registration.
//   - G(r): when the root's last dirty child edge clears, a Go-Ahead wave
//     travels down waiting edges, freeing deregistered clients.
//
// The module provides Register Guarantees 1 and 2 (Lemmas 3.4, 3.5): a
// client that receives Go-Ahead knows every client that registered before
// it deregistered has already deregistered, each operation costs O(h) time
// and messages on an h-height cluster tree, and Go-Aheads arrive within
// O(h) after the last deregistration.
//
// One Module instance per node serves every (cluster, session) pair of one
// cover; sessions are independent state machines (the BFS uses one session
// per pulse). The fix the paper makes to [APSPS92] is reproduced here: a
// node whose own registration is in flight ("registering") blocks a
// passing deregistration wave exactly like a registered node does.
package reg

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// localState tracks this node's own client within one (cluster, session).
type localState int8

const (
	idle localState = iota
	registering
	registered
	deregistered
	free
)

// edge marks, parent's view of the edge to a child.
type edgeMark int8

const (
	markNone edgeMark = iota
	markDirty
	markWaiting
)

// Wire kinds of registration traffic (namespace: this module's proto).
// Every payload carries A = cluster, B = session.
const (
	kindRegUp wire.Kind = iota + 1
	kindRegDone
	kindDeregUp
	kindGoAhead
)

// encPayload encodes one registration message.
func encPayload(k wire.Kind, c cover.ClusterID, session int) wire.Body {
	return wire.Body{Kind: k, A: int64(c), B: int64(session)}
}

// decPayload decodes the cluster and session words.
func decPayload(b wire.Body) (cover.ClusterID, int) {
	return cover.ClusterID(b.A), int(b.B)
}

// Callbacks receives client-visible events.
type Callbacks interface {
	// Registered fires when this node's registration in (c, session)
	// completes (the path to the root is dirty).
	Registered(n *async.Node, c cover.ClusterID, session int)
	// GoAhead fires when this node, having deregistered, receives the
	// cluster's Go-Ahead.
	GoAhead(n *async.Node, c cover.ClusterID, session int)
}

// Record layout of one (session, cluster): a head byte — the local client
// state in the low bits plus the three flags below — followed by one
// edgeMark byte per tree child, in ChildrenOf(me) order.
const (
	localMask uint8 = 0x07
	fFinished uint8 = 0x08
	fPending  uint8 = 0x10 // R(me) invocation in flight to parent
	fUpDirty  uint8 = 0x20 // my view of the edge to my cluster parent
)

// invoker is one child waiting for RegDone on a record (ord is the record's
// ordinal, slot*len(tree)+ci). They live in one arrival-ordered list per
// module, not per record: an entry exists only while an R invocation is in
// flight up the tree, so the list is almost always empty, and RegDone must
// answer a record's invokers in the order they asked.
type invoker struct {
	ord   int32
	child graph.NodeID
}

// Module is the per-node registration engine for one cover. It implements
// async.Module; route one Proto to it.
//
// Run state is flat, laid out like gather's: a session gets a compact slot
// on first sight (never its raw id — at cover level 5 the sessions are
// every odd pulse), slot s owns row st[s*stride:(s+1)*stride], and a row
// holds one record per cluster tree this node is on, in cov.TreeOf(me)
// order. A new row starts as rowInit (roots are born finished). Code
// addresses records by offset and re-derives it after every callback:
// callbacks can open sessions, which grows st.
type Module struct {
	proto   async.Proto
	cov     *cover.Cover
	cb      Callbacks
	stageOf func(session int) int

	// Node binding: derived from (cov, me) on first use, never serialized.
	bound   bool
	me      graph.NodeID
	tree    []cover.ClusterID // cov.TreeOf(me), ascending
	off     []int32           // off[ci]: record ci's offset in a row; off[len(tree)] ends it
	rowInit []byte            // a fresh row; len(rowInit) is the row stride

	sessions []int // slot -> session id, in first-sight order
	st       []byte
	inv      []invoker
}

var _ async.Module = (*Module)(nil)
var _ async.ModuleState = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// New creates the per-node module. stageOf maps a session to the link
// scheduling stage (Lemma 2.5); pass nil for all-stage-zero.
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
	m.off = make([]int32, len(m.tree)+1)
	for ci, cid := range m.tree {
		cl := m.cov.Cluster(cid)
		head := uint8(idle)
		if cl.Root == me {
			head |= fFinished // the root is always finished
		}
		m.rowInit = append(m.rowInit, head)
		m.rowInit = append(m.rowInit, make([]byte, len(cl.ChildrenOf(me)))...)
		m.off[ci+1] = int32(len(m.rowInit))
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
	for s := len(m.sessions) - 1; s >= 0; s-- {
		if m.sessions[s] == session {
			return s
		}
	}
	return -1
}

// rec returns the offset in st of (c, session)'s record plus its cluster
// index and slot, opening the session's row on first sight.
func (m *Module) rec(n *async.Node, c cover.ClusterID, session int) (r, slot, ci int) {
	m.bind(n.ID())
	ci = m.cov.TreeIndex(m.me, c)
	if ci < 0 {
		panic(fmt.Sprintf("reg: node %d is not on the tree of cluster %d", m.me, c))
	}
	slot = m.lookup(session)
	if slot < 0 {
		slot = len(m.sessions)
		m.sessions = append(m.sessions, session)
		m.st = append(m.st, m.rowInit...)
	}
	return m.at(slot, ci), slot, ci
}

// at returns the offset of (slot, ci)'s record in st.
func (m *Module) at(slot, ci int) int { return slot*len(m.rowInit) + int(m.off[ci]) }

// ord returns (slot, ci)'s record ordinal, the key invokers carry.
func (m *Module) ord(slot, ci int) int32 { return int32(slot*len(m.tree) + ci) }

func (m *Module) local(r int) localState { return localState(m.st[r] & localMask) }

func (m *Module) setLocal(r int, l localState) { m.st[r] = m.st[r]&^localMask | uint8(l) }

// anyDirty reports whether some child edge of record r is still dirty.
func (m *Module) anyDirty(r, ci int) bool {
	for _, mark := range m.marks(r, ci) {
		if edgeMark(mark) == markDirty {
			return true
		}
	}
	return false
}

// marks returns record r's child-edge marks; valid until st next grows.
func (m *Module) marks(r, ci int) []byte {
	return m.st[r+1 : r+int(m.off[ci+1]-m.off[ci])]
}

func (m *Module) isRoot(ci int) bool {
	return m.cov.Cluster(m.tree[ci]).Root == m.me
}

func (m *Module) parent(ci int) graph.NodeID {
	p, ok := m.cov.Cluster(m.tree[ci]).ParentOf(m.me)
	if !ok {
		panic(fmt.Sprintf("reg: node %d has no parent in cluster %d", m.me, m.tree[ci]))
	}
	return p
}

func (m *Module) send(n *async.Node, to graph.NodeID, kind wire.Kind, slot, ci int) {
	session := m.sessions[slot]
	n.Send(to, async.Msg{
		Proto: m.proto,
		Stage: m.stageOf(session),
		Body:  encPayload(kind, m.tree[ci], session),
	})
}

// Register starts this node's registration in cluster c for the session.
// The node must be a tree node of c. Callbacks.Registered fires when done.
func (m *Module) Register(n *async.Node, c cover.ClusterID, session int) {
	r, slot, ci := m.rec(n, c, session)
	if m.local(r) != idle {
		panic(fmt.Sprintf("reg: node %d double-registers in cluster %d session %d", n.ID(), c, session))
	}
	if m.st[r]&fFinished != 0 {
		m.setLocal(r, registered)
		m.cb.Registered(n, c, session)
		return
	}
	m.setLocal(r, registering)
	m.invokeRUp(n, slot, ci)
}

// invokeRUp sends (or relies on an already in-flight) R invocation to the
// parent, marking the parent edge dirty.
func (m *Module) invokeRUp(n *async.Node, slot, ci int) {
	r := m.at(slot, ci)
	if m.st[r]&fPending != 0 {
		return // an R(me) is already traveling; its completion serves all
	}
	m.st[r] |= fPending | fUpDirty
	m.send(n, m.parent(ci), kindRegUp, slot, ci)
}

// Deregister ends this node's participation; Callbacks.GoAhead fires when
// the cluster's Go-Ahead arrives.
func (m *Module) Deregister(n *async.Node, c cover.ClusterID, session int) {
	r, slot, ci := m.rec(n, c, session)
	if m.local(r) != registered {
		panic(fmt.Sprintf("reg: node %d deregisters in cluster %d session %d without being registered", n.ID(), c, session))
	}
	m.setLocal(r, deregistered)
	m.runD(n, slot, ci)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	c, session := decPayload(msg.Body)
	_, slot, ci := m.rec(n, c, session)
	switch msg.Body.Kind {
	case kindRegUp:
		m.onRegUp(n, from, slot, ci)
	case kindRegDone:
		m.onRegDone(n, slot, ci)
	case kindDeregUp:
		m.onDeregUp(n, from, slot, ci)
	case kindGoAhead:
		m.runG(n, slot, ci)
	default:
		panic(fmt.Sprintf("reg: unknown kind %d", msg.Body.Kind))
	}
}

// childMark returns the offset of child's edge mark in record (slot, ci).
func (m *Module) childMark(slot, ci int, child graph.NodeID) int {
	i := m.cov.Cluster(m.tree[ci]).ChildIndex(m.me, child)
	if i < 0 {
		panic(fmt.Sprintf("reg: node %d heard from non-child %d in cluster %d", m.me, child, m.tree[ci]))
	}
	return m.at(slot, ci) + 1 + i
}

func (m *Module) onRegUp(n *async.Node, child graph.NodeID, slot, ci int) {
	m.st[m.childMark(slot, ci, child)] = uint8(markDirty)
	if m.st[m.at(slot, ci)]&fFinished != 0 {
		m.send(n, child, kindRegDone, slot, ci)
		return
	}
	m.inv = append(m.inv, invoker{ord: m.ord(slot, ci), child: child})
	m.invokeRUp(n, slot, ci)
}

func (m *Module) onRegDone(n *async.Node, slot, ci int) {
	r := m.at(slot, ci)
	m.st[r] = m.st[r]&^fPending | fFinished
	ord, kept := m.ord(slot, ci), 0
	for _, iv := range m.inv {
		if iv.ord == ord {
			m.send(n, iv.child, kindRegDone, slot, ci)
		} else {
			m.inv[kept] = iv
			kept++
		}
	}
	m.inv = m.inv[:kept]
	if m.local(r) == registering {
		m.setLocal(r, registered)
		m.cb.Registered(n, m.tree[ci], m.sessions[slot])
	}
}

func (m *Module) onDeregUp(n *async.Node, child graph.NodeID, slot, ci int) {
	mark := m.childMark(slot, ci, child)
	if edgeMark(m.st[mark]) != markDirty {
		panic(fmt.Sprintf("reg: node %d got DeregUp on non-dirty edge from %d", n.ID(), child))
	}
	m.st[mark] = uint8(markWaiting)
	if m.isRoot(ci) {
		m.maybeIssueGo(n, slot, ci)
		return
	}
	m.runD(n, slot, ci)
}

// runD is the deregistration wave step D(me).
func (m *Module) runD(n *async.Node, slot, ci int) {
	r := m.at(slot, ci)
	if m.anyDirty(r, ci) {
		return
	}
	if l := m.local(r); l == registering || l == registered {
		// The paper's fix: a node whose own registration is pending or
		// live keeps the path dirty; the wave stops here.
		return
	}
	if m.isRoot(ci) {
		m.maybeIssueGo(n, slot, ci)
		return
	}
	if m.st[r]&fUpDirty == 0 {
		panic(fmt.Sprintf("reg: D at node %d with non-dirty parent edge", n.ID()))
	}
	m.st[r] &^= fUpDirty | fFinished
	m.send(n, m.parent(ci), kindDeregUp, slot, ci)
}

// maybeIssueGo is the root's Go-Ahead trigger.
func (m *Module) maybeIssueGo(n *async.Node, slot, ci int) {
	if m.anyDirty(m.at(slot, ci), ci) {
		return
	}
	m.runG(n, slot, ci)
}

// runG is the Go-Ahead wave step G(me): free the local client if it is
// waiting, then forward through waiting child edges (consuming the marks).
func (m *Module) runG(n *async.Node, slot, ci int) {
	if r := m.at(slot, ci); m.local(r) == deregistered {
		m.setLocal(r, free)
		m.cb.GoAhead(n, m.tree[ci], m.sessions[slot])
	}
	r := m.at(slot, ci) // the callback may have grown st
	children := m.cov.Cluster(m.tree[ci]).ChildrenOf(m.me)
	for i, mark := range m.marks(r, ci) {
		if edgeMark(mark) == markWaiting {
			m.st[r+1+i] = uint8(markNone)
			m.send(n, children[i], kindGoAhead, slot, ci)
		}
	}
}

// LocalDone reports whether this node's client in (c, session) has been
// freed (received its Go-Ahead). Tests use it for final-state checks.
func (m *Module) LocalDone(c cover.ClusterID, session int) bool {
	if !m.bound {
		return false
	}
	slot, ci := m.lookup(session), m.cov.TreeIndex(m.me, c)
	return slot >= 0 && ci >= 0 && m.local(m.at(slot, ci)) == free
}
