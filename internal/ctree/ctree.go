// Package ctree lays out one node's side of the cluster trees of one sparse
// cover: the per-cluster waves of registration (internal/reg, §3.2) and
// gather (internal/gather, §3.1) both keep one record per (session, cluster
// tree) at every tree node, and both keep them in a Table.
//
// A session gets a compact slot on first sight (never its raw id — the
// synchronizer's sessions are sparse in id space), slot s owns row
// Rows[s*stride:(s+1)*stride], and a row holds one record per cluster tree
// the node is on, in cov.Refs(me) order. A record is a head byte followed
// by whatever the module keeps per tree child, so the record offsets
// follow from the refs' child counts. The refs are the cover's column,
// which a table does not copy: a callback reads them once, into a View,
// and addresses records through it. A snapshot is the session table and
// the rows as they stand. Code addresses
// records by offset and never holds a sub-slice across a callback:
// callbacks can open sessions, which grows Rows.
package ctree

import (
	"fmt"
	"slices"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/slab"
	"repro/internal/wire"
)

// Session is one slot of the session table: the session id and the
// module's per-session record S.
type Session[S any] struct {
	ID  int
	Rec S
}

// Level is the configuration every node's table on one cover level shares,
// and the slabs those tables grow their session tables and rows from. A
// module keeps one Level per cover level, behind one pointer, and never
// copies it per node.
type Level[S any] struct {
	Proto   async.Proto
	Cov     *cover.Cover
	StageOf func(session int) int // link scheduling stage of a session (Lemma 2.5); nil for zero
	// ChildBits is what a record keeps per tree child: a record is a head
	// byte, then ChildBits bits per child in whole bytes.
	ChildBits int
	// RootHead is the head byte of a fresh record at the cluster root
	// (every other fresh record is zero).
	RootHead uint8
	// Rec codes S after the session id; nil for none.
	Rec func(*wire.Coder, *S)

	bytes slab.Slab[byte]
	sess  slab.Slab[Session[S]]
}

// NewTable returns an unbound table on lv.
func (lv *Level[S]) NewTable() Table[S] { return Table[S]{lv: lv, me: -1} }

// Table is one node's sessions × cluster-tree records on one cover. It
// keeps only what the node's run writes: its refs are the cover's column,
// which View reads, and its row layout follows from them.
type Table[S any] struct {
	lv   *Level[S]
	me   graph.NodeID // -1 until bound
	Sess []Session[S] // by slot, in first-sight order
	Rows []byte       // len(Sess) rows
}

// Bind fixes the node the table serves. The engine binds each handler
// once, when it builds it.
func (t *Table[S]) Bind(me graph.NodeID) { t.me = me }

// Me returns the node the table is bound to.
func (t *Table[S]) Me() graph.NodeID { return t.me }

// Lookup returns the session's slot, or -1. Recent sessions are the live
// ones, so the scan runs newest first.
func (t *Table[S]) Lookup(session int) int {
	for s := len(t.Sess) - 1; s >= 0; s-- {
		if t.Sess[s].ID == session {
			return s
		}
	}
	return -1
}

// View is a table read against its node's refs on the cover: a callback
// takes one at its entry and addresses records through it. The cover never
// changes, and the view reaches the session table and rows through the
// table, so it stays valid while callbacks open sessions.
type View[S any] struct {
	*Table[S]
	Trees  []cover.Ref // cov.Refs(me)
	stride int         // row length in bytes
}

// View reads the node's refs from the cover and sums its row length. An
// unbound table's view is on no tree and has empty rows.
func (t *Table[S]) View() View[S] {
	v := View[S]{Table: t}
	if t.me >= 0 {
		v.Trees = t.lv.Cov.Refs(t.me)
		v.stride = v.off(len(v.Trees))
	}
	return v
}

// Members returns how many clusters the node is a member of.
func (t *View[S]) Members() int { return len(t.lv.Cov.MemberOf(t.me)) }

// Stride returns the row length in bytes.
func (t *View[S]) Stride() int { return t.stride }

// Slot returns the session's slot, opening a fresh row on first sight.
func (t *View[S]) Slot(session int) int {
	if s := t.Lookup(session); s >= 0 {
		return s
	}
	t.Sess = slab.Push(&t.lv.sess, t.Sess, Session[S]{ID: session})
	n := len(t.Rows)
	t.Rows = t.lv.bytes.Grow(t.Rows, t.stride)[:n+t.stride]
	clear(t.Rows[n:])
	if t.lv.RootHead != 0 {
		for ci, tr := range t.Trees {
			if tr.Parent < 0 {
				t.Rows[n+t.off(ci)] = t.lv.RootHead
			}
		}
	}
	return len(t.Sess) - 1
}

// Index returns c's position in Trees, or -1.
func (t *View[S]) Index(c cover.ClusterID) int {
	for ci := range t.Trees {
		if t.Trees[ci].ID == c {
			return ci
		}
	}
	return -1
}

// Open returns (c, session)'s slot and tree index, opening the session's
// row on first sight. Tree traffic only travels along cluster trees, so a
// cluster the node is not on is a routing bug.
func (t *View[S]) Open(c cover.ClusterID, session int) (slot, ci int) {
	ci = t.Index(c)
	if ci < 0 {
		panic(fmt.Sprintf("ctree: node %d is not on the tree of cluster %d", t.me, c))
	}
	return t.Slot(session), ci
}

// Recv resolves a message body Send wrote to its slot and tree index.
func (t *View[S]) Recv(b wire.Body) (slot, ci int) {
	return t.Open(cover.ClusterID(b.A), int(b.B))
}

// off returns tree ci's record offset in a row: the lengths of the records
// before it, each a head byte and ChildBits bits per child in whole bytes.
// A node is on O(log n) trees, whose refs a callback reads anyway.
func (t *View[S]) off(ci int) int {
	off := 0
	for _, tr := range t.Trees[:ci] {
		off += 1 + (len(t.lv.Cov.Children(tr))*t.lv.ChildBits+7)/8
	}
	return off
}

// At returns the offset of (slot, ci)'s record in Rows.
func (t *View[S]) At(slot, ci int) int { return slot*t.stride + t.off(ci) }

// Children returns the node's children on tree ci, ascending: the cover's
// own storage.
func (t *View[S]) Children(ci int) []graph.NodeID { return t.lv.Cov.Children(t.Trees[ci]) }

// Child returns child's position in tree ci's children.
func (t *View[S]) Child(ci int, child graph.NodeID) int {
	i, ok := slices.BinarySearch(t.Children(ci), child)
	if !ok {
		panic(fmt.Sprintf("ctree: node %d heard from non-child %d in cluster %d", t.me, child, t.Trees[ci].ID))
	}
	return i
}

// Send sends a message of kind k for (slot, ci) to a tree neighbor: the
// body carries A = cluster, B = session, and the session picks the stage.
func (t *View[S]) Send(n *async.Node, to graph.NodeID, k wire.Kind, slot, ci int) {
	session, stage := t.Sess[slot].ID, 0
	if t.lv.StageOf != nil {
		stage = t.lv.StageOf(session)
	}
	n.Send(to, async.Msg{Proto: t.lv.Proto, Stage: stage, Body: body(k, t.Trees[ci].ID, session)})
}

// body encodes one tree message; Recv decodes it.
func body(k wire.Kind, c cover.ClusterID, session int) wire.Body {
	return wire.Body{Kind: k, A: int64(c), B: int64(session)}
}

// Reset empties the session table and rows.
func (t *Table[S]) Reset() { t.Sess, t.Rows = t.Sess[:0], t.Rows[:0] }

// State codes the session table in slot order, each id followed by its
// record, then the rows verbatim. The level's configuration is
// reconstructed by the module's constructor, and the row layout derives
// from (cover, node); none of it travels. A load needs the table to know
// its node, since it sizes the rows by that node's layout; one that fails
// leaves the table empty.
func (t *Table[S]) State(c *wire.Coder) {
	wire.List(c, &t.Sess, &t.lv.sess, func(c *wire.Coder, s *Session[S]) {
		c.Int(&s.ID)
		if t.lv.Rec != nil {
			t.lv.Rec(c, &s.Rec)
		}
	})
	n := 0 // a save writes the rows whole; a load sizes them by the node's layout
	if c.Loading() && len(t.Sess) > 0 {
		if t.me < 0 {
			c.Fail("ctree: state for %d sessions loaded into a table that does not know its node", len(t.Sess))
		}
		n = len(t.Sess) * t.View().stride
	}
	c.Raw(&t.Rows, n, &t.lv.bytes)
	if c.Failed() { // never leave rows and session table out of step
		t.Reset()
	}
}
