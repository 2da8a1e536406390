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
	"repro/internal/ctree"
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
// Every payload carries A = cluster, B = session (ctree.Table.Send).
const (
	kindRegUp wire.Kind = iota + 1
	kindRegDone
	kindDeregUp
	kindGoAhead
)

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
// edgeMark byte per tree child, in ctree.Table.Children order.
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

// Module is the per-node registration engine for one cover. It implements
// async.Module; route one Proto to it.
//
// Run state is one ctree.Table: a row per session, and in it one record
// per cluster tree this node is on. A new row starts zeroed but for the
// roots' heads (roots are born finished). Code addresses records by offset
// and re-derives it after every callback: callbacks can open sessions,
// which grows the rows.
type Module struct {
	lv  *level
	t   ctree.Table[struct{}]
	inv []invoker
}

// level is the configuration every module of one NewLevel call shares.
type level struct {
	ctree.Level[struct{}]
	cb   Callbacks
	invs slab.Slab[invoker]
}

// view is the module's table during one callback, read against the node's
// cover columns once; the helpers below take it.
type view = ctree.View[struct{}]

var _ async.Module = (*Module)(nil)
var _ wire.StateCodec = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// NewLevel fills mods with one cover level's modules and returns it: one
// per node the run hosts, each bound to its node by Rebind. stageOf maps a
// session to the link scheduling stage (Lemma 2.5); pass nil for
// all-stage-zero. The modules share the level's callbacks — which tell the
// nodes apart by the *async.Node each call carries — and its slabs, from
// which each grows its rows (the row layout is the cover's, read in
// place), so a run allocates module state per level, not per node.
func NewLevel(mods []Module, proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) []Module {
	lv := &level{cb: cb}
	lv.Level = ctree.Level[struct{}]{
		Proto: proto, Cov: cov, StageOf: stageOf,
		ChildBits: 8,                       // one edgeMark byte per child
		RootHead:  uint8(idle) | fFinished, // the root is always finished
	}
	for i := range mods {
		mods[i] = Module{lv: lv, t: lv.NewTable()}
	}
	return mods
}

// New creates one node's module: a level of one.
func New(proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) *Module {
	return &NewLevel(make([]Module, 1), proto, cov, cb, stageOf)[0]
}

// Start implements async.Module.
func (*Module) Start(*async.Node) {}

// Rebind implements async.Rebinder: the engine binds the module to its node
// once, when it builds the handler.
func (m *Module) Rebind(n *async.Node) { m.t.Bind(n.ID()) }

// Ack implements async.Module.
func (m *Module) Ack(*async.Node, graph.NodeID, async.Msg) {}

// ord returns (slot, ci)'s record ordinal, the key invokers carry.
func (m *Module) ord(t *view, slot, ci int) int32 { return int32(slot*len(t.Trees) + ci) }

func (m *Module) local(r int) localState { return localState(m.t.Rows[r] & localMask) }

func (m *Module) setLocal(r int, l localState) { m.t.Rows[r] = m.t.Rows[r]&^localMask | uint8(l) }

// anyDirty reports whether some child edge of record r is still dirty.
func (m *Module) anyDirty(t *view, r, ci int) bool {
	return slices.Contains(m.marks(t, r, ci), uint8(markDirty))
}

// marks returns record r's child-edge marks; valid until the rows next grow.
func (m *Module) marks(t *view, r, ci int) []byte {
	return t.Rows[r+1 : r+1+len(t.Children(ci))]
}

func (m *Module) isRoot(t *view, ci int) bool { return t.Trees[ci].Parent < 0 }

func (m *Module) parent(t *view, ci int) graph.NodeID {
	if m.isRoot(t, ci) {
		panic(fmt.Sprintf("reg: node %d has no parent in cluster %d", t.Me(), t.Trees[ci].ID))
	}
	return t.Trees[ci].Parent
}

// Register starts this node's registration in cluster c for the session.
// The node must be a tree node of c. Callbacks.Registered fires when done.
func (m *Module) Register(n *async.Node, c cover.ClusterID, session int) {
	t := m.t.View()
	slot, ci := t.Open(c, session)
	r := t.At(slot, ci)
	if m.local(r) != idle {
		panic(fmt.Sprintf("reg: node %d double-registers in cluster %d session %d", n.ID(), c, session))
	}
	if t.Rows[r]&fFinished != 0 {
		m.setLocal(r, registered)
		m.lv.cb.Registered(n, c, session)
		return
	}
	m.setLocal(r, registering)
	m.invokeRUp(&t, n, slot, ci)
}

// invokeRUp sends (or relies on an already in-flight) R invocation to the
// parent, marking the parent edge dirty.
func (m *Module) invokeRUp(t *view, n *async.Node, slot, ci int) {
	r := t.At(slot, ci)
	if t.Rows[r]&fPending != 0 {
		return // an R(me) is already traveling; its completion serves all
	}
	t.Rows[r] |= fPending | fUpDirty
	t.Send(n, m.parent(t, ci), kindRegUp, slot, ci)
}

// Deregister ends this node's participation; Callbacks.GoAhead fires when
// the cluster's Go-Ahead arrives.
func (m *Module) Deregister(n *async.Node, c cover.ClusterID, session int) {
	t := m.t.View()
	slot, ci := t.Open(c, session)
	r := t.At(slot, ci)
	if m.local(r) != registered {
		panic(fmt.Sprintf("reg: node %d deregisters in cluster %d session %d without being registered", n.ID(), c, session))
	}
	m.setLocal(r, deregistered)
	m.runD(&t, n, slot, ci)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	t := m.t.View()
	slot, ci := t.Recv(msg.Body)
	switch msg.Body.Kind {
	case kindRegUp:
		m.onRegUp(&t, n, from, slot, ci)
	case kindRegDone:
		m.onRegDone(&t, n, slot, ci)
	case kindDeregUp:
		m.onDeregUp(&t, n, from, slot, ci)
	case kindGoAhead:
		m.runG(&t, n, slot, ci)
	default:
		panic(fmt.Sprintf("reg: unknown kind %d", msg.Body.Kind))
	}
}

// childMark returns the offset of child's edge mark in record (slot, ci).
func (m *Module) childMark(t *view, slot, ci int, child graph.NodeID) int {
	return t.At(slot, ci) + 1 + t.Child(ci, child)
}

func (m *Module) onRegUp(t *view, n *async.Node, child graph.NodeID, slot, ci int) {
	t.Rows[m.childMark(t, slot, ci, child)] = uint8(markDirty)
	if t.Rows[t.At(slot, ci)]&fFinished != 0 {
		t.Send(n, child, kindRegDone, slot, ci)
		return
	}
	m.inv = slab.Push(&m.lv.invs, m.inv, invoker{ord: m.ord(t, slot, ci), child: child})
	m.invokeRUp(t, n, slot, ci)
}

func (m *Module) onRegDone(t *view, n *async.Node, slot, ci int) {
	r := t.At(slot, ci)
	t.Rows[r] = t.Rows[r]&^fPending | fFinished
	ord, kept := m.ord(t, slot, ci), 0
	for _, iv := range m.inv {
		if iv.ord == ord {
			t.Send(n, iv.child, kindRegDone, slot, ci)
		} else {
			m.inv[kept] = iv
			kept++
		}
	}
	m.inv = m.inv[:kept]
	if m.local(r) == registering {
		m.setLocal(r, registered)
		m.lv.cb.Registered(n, t.Trees[ci].ID, t.Sess[slot].ID)
	}
}

func (m *Module) onDeregUp(t *view, n *async.Node, child graph.NodeID, slot, ci int) {
	mark := m.childMark(t, slot, ci, child)
	if edgeMark(t.Rows[mark]) != markDirty {
		panic(fmt.Sprintf("reg: node %d got DeregUp on non-dirty edge from %d", n.ID(), child))
	}
	t.Rows[mark] = uint8(markWaiting)
	if !m.isRoot(t, ci) {
		m.runD(t, n, slot, ci)
	} else if !m.anyDirty(t, t.At(slot, ci), ci) {
		m.runG(t, n, slot, ci) // the root's Go-Ahead trigger
	}
}

// runD is the deregistration wave step D(me).
func (m *Module) runD(t *view, n *async.Node, slot, ci int) {
	r := t.At(slot, ci)
	if m.anyDirty(t, r, ci) {
		return
	}
	if l := m.local(r); l == registering || l == registered {
		// The paper's fix: a node whose own registration is pending or
		// live keeps the path dirty; the wave stops here.
		return
	}
	if m.isRoot(t, ci) {
		m.runG(t, n, slot, ci) // the root's Go-Ahead trigger: no child edge is dirty
		return
	}
	if t.Rows[r]&fUpDirty == 0 {
		panic(fmt.Sprintf("reg: D at node %d with non-dirty parent edge", n.ID()))
	}
	t.Rows[r] &^= fUpDirty | fFinished
	t.Send(n, m.parent(t, ci), kindDeregUp, slot, ci)
}

// runG is the Go-Ahead wave step G(me): free the local client if it is
// waiting, then forward through waiting child edges (consuming the marks).
func (m *Module) runG(t *view, n *async.Node, slot, ci int) {
	if r := t.At(slot, ci); m.local(r) == deregistered {
		m.setLocal(r, free)
		m.lv.cb.GoAhead(n, t.Trees[ci].ID, t.Sess[slot].ID)
	}
	r := t.At(slot, ci) // the callback may have grown the rows
	children := t.Children(ci)
	for i, mark := range m.marks(t, r, ci) {
		if edgeMark(mark) == markWaiting {
			t.Rows[r+1+i] = uint8(markNone)
			t.Send(n, children[i], kindGoAhead, slot, ci)
		}
	}
}

// LocalDone reports whether this node's client in (c, session) has been
// freed (received its Go-Ahead). Tests use it for final-state checks.
func (m *Module) LocalDone(c cover.ClusterID, session int) bool {
	t := m.t.View()
	slot, ci := t.Lookup(session), t.Index(c)
	return slot >= 0 && ci >= 0 && m.local(t.At(slot, ci)) == free
}
