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
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/slab"
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
// ordinal, slot*len(trees)+ci). They live in one arrival-ordered list per
// module, not per record: an entry exists only while an R invocation is in
// flight up the tree, so the list is almost always empty, and RegDone must
// answer a record's invokers in the order they asked.
type invoker struct {
	ord   int32
	child graph.NodeID
}

// treeRef is this node's place on one cluster tree, resolved once at bind
// so no event searches the cluster tree again: the record's offset in a
// row, the tree parent, and the children the edge marks follow.
type treeRef struct {
	id       cover.ClusterID
	off      int32          // record offset in a row; the record is 1+len(children) bytes
	parent   graph.NodeID   // -1 at the root
	children []graph.NodeID // ascending; the cluster tree's own storage
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
	run     *run

	// Node binding: derived from (cov, me) at Rebind, never serialized.
	bound   bool
	me      graph.NodeID
	trees   []treeRef // cov.TreeOf(me), ascending by cluster
	rowInit []byte    // a fresh row; len(rowInit) is the row stride

	sessions []int // slot -> session id, in first-sight order
	st       []byte
	inv      []invoker
}

// run holds the slabs every copy of one New value carves from: the node
// layouts at bind, and the session table, rows and invoker lists as they
// grow.
type run struct {
	trees    slab.Slab[treeRef]
	bytes    slab.Slab[byte]
	sessions slab.Slab[int]
	invs     slab.Slab[invoker]
}

var _ async.Module = (*Module)(nil)
var _ async.ModuleState = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// New creates the per-node module. stageOf maps a session to the link
// scheduling stage (Lemma 2.5); pass nil for all-stage-zero.
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
	m.trees = m.run.trees.Carve(len(ids))
	stride := 0
	for _, cid := range ids {
		cl := m.cov.Cluster(cid)
		t := treeRef{id: cid, off: int32(stride), parent: -1, children: cl.ChildrenOf(me)}
		if cl.Root != me {
			t.parent, _ = cl.ParentOf(me)
		}
		m.trees = append(m.trees, t)
		stride += 1 + len(t.children)
	}
	m.rowInit = m.run.bytes.Carve(stride)[:stride]
	for _, t := range m.trees {
		if t.parent < 0 {
			m.rowInit[t.off] = uint8(idle) | fFinished // the root is always finished
		}
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
	for s := len(m.sessions) - 1; s >= 0; s-- {
		if m.sessions[s] == session {
			return s
		}
	}
	return -1
}

// treeIndex returns c's position in trees, or -1.
func (m *Module) treeIndex(c cover.ClusterID) int {
	for ci := range m.trees {
		if m.trees[ci].id == c {
			return ci
		}
	}
	return -1
}

// rec returns the offset in st of (c, session)'s record plus its cluster
// index and slot, opening the session's row on first sight.
func (m *Module) rec(c cover.ClusterID, session int) (r, slot, ci int) {
	ci = m.treeIndex(c)
	if ci < 0 {
		panic(fmt.Sprintf("reg: node %d is not on the tree of cluster %d", m.me, c))
	}
	slot = m.lookup(session)
	if slot < 0 {
		slot = len(m.sessions)
		m.sessions = slab.Push(&m.run.sessions, m.sessions, session)
		m.st = append(m.run.bytes.Grow(m.st, len(m.rowInit)), m.rowInit...)
	}
	return m.at(slot, ci), slot, ci
}

// at returns the offset of (slot, ci)'s record in st.
func (m *Module) at(slot, ci int) int { return slot*len(m.rowInit) + int(m.trees[ci].off) }

// ord returns (slot, ci)'s record ordinal, the key invokers carry.
func (m *Module) ord(slot, ci int) int32 { return int32(slot*len(m.trees) + ci) }

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
	return m.st[r+1 : r+1+len(m.trees[ci].children)]
}

func (m *Module) isRoot(ci int) bool { return m.trees[ci].parent < 0 }

func (m *Module) parent(ci int) graph.NodeID {
	if m.isRoot(ci) {
		panic(fmt.Sprintf("reg: node %d has no parent in cluster %d", m.me, m.trees[ci].id))
	}
	return m.trees[ci].parent
}

func (m *Module) send(n *async.Node, to graph.NodeID, kind wire.Kind, slot, ci int) {
	session := m.sessions[slot]
	n.Send(to, async.Msg{
		Proto: m.proto,
		Stage: m.stageOf(session),
		Body:  encPayload(kind, m.trees[ci].id, session),
	})
}

// Register starts this node's registration in cluster c for the session.
// The node must be a tree node of c. Callbacks.Registered fires when done.
func (m *Module) Register(n *async.Node, c cover.ClusterID, session int) {
	r, slot, ci := m.rec(c, session)
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
	r, slot, ci := m.rec(c, session)
	if m.local(r) != registered {
		panic(fmt.Sprintf("reg: node %d deregisters in cluster %d session %d without being registered", n.ID(), c, session))
	}
	m.setLocal(r, deregistered)
	m.runD(n, slot, ci)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	c, session := decPayload(msg.Body)
	_, slot, ci := m.rec(c, session)
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
	i, ok := slices.BinarySearch(m.trees[ci].children, child)
	if !ok {
		panic(fmt.Sprintf("reg: node %d heard from non-child %d in cluster %d", m.me, child, m.trees[ci].id))
	}
	return m.at(slot, ci) + 1 + i
}

func (m *Module) onRegUp(n *async.Node, child graph.NodeID, slot, ci int) {
	m.st[m.childMark(slot, ci, child)] = uint8(markDirty)
	if m.st[m.at(slot, ci)]&fFinished != 0 {
		m.send(n, child, kindRegDone, slot, ci)
		return
	}
	m.inv = slab.Push(&m.run.invs, m.inv, invoker{ord: m.ord(slot, ci), child: child})
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
		m.cb.Registered(n, m.trees[ci].id, m.sessions[slot])
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
		m.cb.GoAhead(n, m.trees[ci].id, m.sessions[slot])
	}
	r := m.at(slot, ci) // the callback may have grown st
	children := m.trees[ci].children
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
	slot, ci := m.lookup(session), m.treeIndex(c)
	return slot >= 0 && ci >= 0 && m.local(m.at(slot, ci)) == free
}
