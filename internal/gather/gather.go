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

// level is the configuration every copy of one New value shares.
type level struct {
	ctree.Level[session]
	cb Callbacks
}

var _ async.Module = (*Module)(nil)
var _ wire.StateCodec = (*Module)(nil)
var _ async.Rebinder = (*Module)(nil)

// New creates the per-node module. stageOf maps sessions to link stages
// (nil = all zero).
//
// A run that hosts the module on many nodes builds them as copies of one
// New value, taken before any of them is bound: the copies share its
// callbacks — which tell the nodes apart by the *async.Node each call
// carries — and its slabs, from which each copy grows its rows (the row
// layout is the cover's, read in place). The run then allocates module
// state per run, not per node.
func New(proto async.Proto, cov *cover.Cover, cb Callbacks, stageOf func(int) int) *Module {
	lv := &level{cb: cb}
	lv.Level = ctree.Level[session]{
		Proto: proto, Cov: cov, StageOf: stageOf,
		ChildBits: 1, // one childDone bit per child
		Rec:       sessionState,
	}
	return &Module{lv: lv, t: lv.NewTable()}
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
func (m *Module) Begin(n *async.Node, session int) {
	slot := m.t.Slot(session)
	if m.sess(slot).began {
		return
	}
	m.sess(slot).began = true
	for ci := range m.t.Trees {
		f := fBegan
		if !m.t.Trees[ci].Member {
			f |= fLocalDone // nonterminals have no process to finish
		}
		m.t.Rows[m.t.At(slot, ci)] |= f
		m.maybeReport(n, slot, ci)
	}
	// A node in no cluster at all has a trivially-done neighborhood.
	if m.t.Members == 0 {
		m.maybeFire(n, slot)
	}
}

// MarkDone records that this node's local process P for the session is
// finished. Implies Begin.
func (m *Module) MarkDone(n *async.Node, session int) {
	m.Begin(n, session)
	slot := m.t.Slot(session)
	if m.sess(slot).markedAll {
		return
	}
	m.sess(slot).markedAll = true
	for ci := range m.t.Trees {
		if !m.t.Trees[ci].Member {
			continue
		}
		m.t.Rows[m.t.At(slot, ci)] |= fLocalDone
		m.maybeReport(n, slot, ci)
	}
	m.maybeFire(n, slot)
}

// Recv implements async.Module.
func (m *Module) Recv(n *async.Node, from graph.NodeID, msg async.Msg) {
	slot, ci := m.t.Recv(msg.Body)
	switch msg.Body.Kind {
	case kindDoneUp:
		i := m.t.Child(ci, from)
		m.t.Rows[m.t.At(slot, ci)+1+i/8] |= 1 << uint(i%8)
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
	r := m.t.At(slot, ci)
	if f := m.t.Rows[r]; f&fReported != 0 || f&fBegan == 0 || f&fLocalDone == 0 {
		return
	}
	t := &m.t.Trees[ci]
	for i := range m.t.Children(ci) {
		if m.t.Rows[r+1+i/8]&(1<<uint(i%8)) == 0 {
			return
		}
	}
	m.t.Rows[r] |= fReported
	if t.Parent < 0 {
		m.confirm(n, slot, ci)
		return
	}
	m.t.Send(n, t.Parent, kindDoneUp, slot, ci)
}

// confirm marks the cluster complete at this node and forwards the
// broadcast to tree children.
func (m *Module) confirm(n *async.Node, slot, ci int) {
	r := m.t.At(slot, ci)
	if m.t.Rows[r]&fConfirmed != 0 {
		return
	}
	m.t.Rows[r] |= fConfirmed
	t := &m.t.Trees[ci]
	for _, ch := range m.t.Children(ci) {
		m.t.Send(n, ch, kindConfirmDown, slot, ci)
	}
	if t.Member {
		m.sess(slot).confirmed++
		m.maybeFire(n, slot)
	}
}

// maybeFire delivers NeighborhoodDone when every containing cluster has
// confirmed and the local process finished (a member's own completion is
// part of "everyone within distance d is done").
func (m *Module) maybeFire(n *async.Node, slot int) {
	ns := m.sess(slot)
	if ns.fired {
		return
	}
	if m.t.Members > 0 && (!ns.markedAll || ns.confirmed < m.t.Members) {
		return
	}
	if m.t.Members == 0 && !ns.began {
		return
	}
	ns.fired = true
	m.lv.cb.NeighborhoodDone(n, m.t.Sess[slot].ID)
}

// Done reports whether the session's NeighborhoodDone fired at this node.
func (m *Module) Done(session int) bool {
	s := m.t.Lookup(session)
	return s >= 0 && m.sess(s).fired
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
