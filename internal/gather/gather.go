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
	"repro/internal/ctree"
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
// payload carries A = cluster, B = session (ctree.Table.Send).
const (
	kindDoneUp wire.Kind = iota + 1
	kindConfirmDown
)

// Per-(session, cluster) convergecast flags; the cluster's record is this
// byte followed by one childDone bit per tree child.
const (
	fBegan uint8 = 1 << iota
	fLocalDone
	fReported
	fConfirmed
)

// session is the per-session callback state of this node.
type session struct {
	confirmed int32 // clusters containing me that confirmed
	began     bool
	markedAll bool
	fired     bool // callback delivered
}

// Module is the per-node gather engine for one cover.
//
// Run state is one ctree.Table whose per-session record is the callback
// state above: a row per session, and in it one record per cluster tree
// this node is on — a flags byte, then one childDone bit per tree child.
// Code addresses records by offset and never holds a sub-slice across a
// callback: callbacks can open sessions, which grows the rows.
type Module struct {
	lv *level
	t  ctree.Table[session]
}

// level is the configuration every module of one NewLevel call shares.
type level struct {
	ctree.Level[session]
	cb Callbacks
}

// view is the module's table during one callback, read against the node's
// cover columns once; the helpers below take it.
type view = ctree.View[session]

var _ async.Module = (*Module)(nil)
var _ wire.StateCodec = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// NewLevel fills mods with one cover level's modules and returns it: one
// per node the run hosts, each bound to its node by Rebind. stageOf maps
// sessions to link stages (nil = all zero). The modules share the level's
// callbacks — which tell the nodes apart by the *async.Node each call
// carries — and its slabs, from which each grows its rows (the row layout
// is the cover's, read in place), so a run allocates module state per
// level, not per node.
func NewLevel(mods []Module, proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) []Module {
	lv := &level{cb: cb}
	lv.Level = ctree.Level[session]{
		Proto: proto, Cov: cov, StageOf: stageOf,
		ChildBits: 1, // one childDone bit per child
		Rec:       sessionState,
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

// sess returns the slot's callback state; valid until the table next grows.
func (m *Module) sess(slot int) *session { return &m.t.Sess[slot].Rec }

// Begin announces the session at this node: every cluster tree this node
// participates in becomes live here. Nonterminal nodes (pure relays) count
// as locally done. Idempotent. Every tree participant must eventually call
// Begin (or MarkDone) for every session, or convergecasts stall.
func (m *Module) Begin(n *async.Node, session int) { m.begin(m.t.View(), n, session) }

func (m *Module) begin(t view, n *async.Node, session int) {
	slot := t.Slot(session)
	if m.sess(slot).began {
		return
	}
	m.sess(slot).began = true
	for ci := range t.Trees {
		f := fBegan
		if !t.Trees[ci].Member {
			f |= fLocalDone // nonterminals have no process to finish
		}
		t.Rows[t.At(slot, ci)] |= f
		m.maybeReport(&t, n, slot, ci)
	}
	// A node in no cluster at all has a trivially-done neighborhood.
	if t.Members() == 0 {
		m.maybeFire(&t, n, slot)
	}
}

// MarkDone records that this node's local process P for the session is
// finished. Implies Begin.
func (m *Module) MarkDone(n *async.Node, session int) {
	t := m.t.View()
	m.begin(t, n, session)
	slot := t.Slot(session)
	if m.sess(slot).markedAll {
		return
	}
	m.sess(slot).markedAll = true
	for ci := range t.Trees {
		if !t.Trees[ci].Member {
			continue
		}
		t.Rows[t.At(slot, ci)] |= fLocalDone
		m.maybeReport(&t, n, slot, ci)
	}
	m.maybeFire(&t, n, slot)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	t := m.t.View()
	slot, ci := t.Recv(msg.Body)
	switch msg.Body.Kind {
	case kindDoneUp:
		i := t.Child(ci, from)
		t.Rows[t.At(slot, ci)+1+i/8] |= 1 << uint(i%8)
		m.maybeReport(&t, n, slot, ci)
	case kindConfirmDown:
		m.confirm(&t, n, slot, ci)
	default:
		panic(fmt.Sprintf("gather: unknown kind %d", msg.Body.Kind))
	}
}

// maybeReport sends the subtree-done report upward (or starts the
// confirmation broadcast at the root) once this node is locally done, has
// begun, and has heard from every tree child.
func (m *Module) maybeReport(t *view, n *async.Node, slot, ci int) {
	r := t.At(slot, ci)
	if f := t.Rows[r]; f&fReported != 0 || f&fBegan == 0 || f&fLocalDone == 0 {
		return
	}
	tr := &t.Trees[ci]
	for i := range t.Children(ci) {
		if t.Rows[r+1+i/8]&(1<<uint(i%8)) == 0 {
			return
		}
	}
	t.Rows[r] |= fReported
	if tr.Parent < 0 {
		m.confirm(t, n, slot, ci)
		return
	}
	t.Send(n, tr.Parent, kindDoneUp, slot, ci)
}

// confirm marks the cluster complete at this node and forwards the
// broadcast to tree children.
func (m *Module) confirm(t *view, n *async.Node, slot, ci int) {
	r := t.At(slot, ci)
	if t.Rows[r]&fConfirmed != 0 {
		return
	}
	t.Rows[r] |= fConfirmed
	tr := &t.Trees[ci]
	for _, ch := range t.Children(ci) {
		t.Send(n, ch, kindConfirmDown, slot, ci)
	}
	if tr.Member {
		m.sess(slot).confirmed++
		m.maybeFire(t, n, slot)
	}
}

// maybeFire delivers NeighborhoodDone when every containing cluster has
// confirmed and the local process finished (a member's own completion is
// part of "everyone within distance d is done").
func (m *Module) maybeFire(t *view, n *async.Node, slot int) {
	ns := m.sess(slot)
	if ns.fired {
		return
	}
	members := t.Members()
	if members > 0 && (!ns.markedAll || int(ns.confirmed) < members) {
		return
	}
	if members == 0 && !ns.began {
		return
	}
	ns.fired = true
	m.lv.cb.NeighborhoodDone(n, t.Sess[slot].ID)
}

// Done reports whether the session's NeighborhoodDone fired at this node.
func (m *Module) Done(session int) bool {
	s := m.t.Lookup(session)
	return s >= 0 && m.sess(s).fired
}
