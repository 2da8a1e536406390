// Package ctree lays out one node's side of the cluster trees of one sparse
// cover: the per-cluster waves of registration (internal/reg, §3.2) and
// gather (internal/gather, §3.1) both keep one record per (session, cluster
// tree) at every tree node, and both keep them in a Table.
//
// A session gets a compact slot on first sight (never its raw id — the
// synchronizer's sessions are sparse in id space), slot s owns row
// Rows[s*stride:(s+1)*stride], and a row holds one record per cluster tree
// the node is on, in cov.Refs(me) order. A record is a head byte followed
// by whatever the module keeps per tree child. The refs and the record
// offsets are the cover's, read in place, and a snapshot is the session
// table and the rows as they stand. Code addresses records by offset and
// never holds a sub-slice across a callback: callbacks can open sessions,
// which grows Rows.
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

	starts []int32 // Cov.RecordStarts(ChildBits)
	bytes  slab.Slab[byte]
	sess   slab.Slab[Session[S]]
}

// NewTable returns an unbound table on lv, fixing lv's record layout.
func (lv *Level[S]) NewTable() Table[S] {
	lv.starts = lv.Cov.RecordStarts(lv.ChildBits)
	return Table[S]{lv: lv, me: -1}
}

// Table is one node's sessions × cluster-tree records on one cover.
type Table[S any] struct {
	lv      *Level[S]
	me      graph.NodeID // -1 until bound
	first   int32        // index of Trees[0] among the cover's refs
	stride  int32        // row length in bytes
	Members int32        // len(cov.MemberOf(me))
	Trees   []cover.Ref  // cov.Refs(me), read in place
	Sess    []Session[S] // by slot, in first-sight order
	Rows    []byte       // len(Sess) rows
}

// Bind fixes the node the table serves and points it at the node's refs on
// the cover. The engine binds each handler once, when it builds it.
func (t *Table[S]) Bind(me graph.NodeID) {
	cov := t.lv.Cov
	t.me, t.Trees = me, cov.Refs(me)
	t.first = int32(cov.FirstRef(me))
	t.Members = int32(len(cov.MemberOf(me)))
	t.stride = t.lv.starts[int(t.first)+len(t.Trees)] - t.lv.starts[t.first]
}

// Me returns the node the table is bound to.
func (t *Table[S]) Me() graph.NodeID { return t.me }

// Stride returns the row length in bytes.
func (t *Table[S]) Stride() int { return int(t.stride) }

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

// Slot returns the session's slot, opening a fresh row on first sight.
func (t *Table[S]) Slot(session int) int {
	if s := t.Lookup(session); s >= 0 {
		return s
	}
	t.Sess = slab.Push(&t.lv.sess, t.Sess, Session[S]{ID: session})
	n, stride := len(t.Rows), int(t.stride)
	t.Rows = t.lv.bytes.Grow(t.Rows, stride)[:n+stride]
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
func (t *Table[S]) Index(c cover.ClusterID) int {
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
func (t *Table[S]) Open(c cover.ClusterID, session int) (slot, ci int) {
	ci = t.Index(c)
	if ci < 0 {
		panic(fmt.Sprintf("ctree: node %d is not on the tree of cluster %d", t.me, c))
	}
	return t.Slot(session), ci
}

// Recv resolves a message body Send wrote to its slot and tree index.
func (t *Table[S]) Recv(b wire.Body) (slot, ci int) {
	return t.Open(cover.ClusterID(b.A), int(b.B))
}

// off returns tree ci's record offset in a row.
func (t *Table[S]) off(ci int) int {
	return int(t.lv.starts[int(t.first)+ci] - t.lv.starts[t.first])
}

// At returns the offset of (slot, ci)'s record in Rows.
func (t *Table[S]) At(slot, ci int) int { return slot*int(t.stride) + t.off(ci) }

// Children returns the node's children on tree ci, ascending: the cover's
// own storage.
func (t *Table[S]) Children(ci int) []graph.NodeID { return t.lv.Cov.Children(t.Trees[ci]) }

// Child returns child's position in tree ci's children.
func (t *Table[S]) Child(ci int, child graph.NodeID) int {
	i, ok := slices.BinarySearch(t.Children(ci), child)
	if !ok {
		panic(fmt.Sprintf("ctree: node %d heard from non-child %d in cluster %d", t.me, child, t.Trees[ci].ID))
	}
	return i
}

// Send sends a message of kind k for (slot, ci) to a tree neighbor: the
// body carries A = cluster, B = session, and the session picks the stage.
func (t *Table[S]) Send(n *async.Node, to graph.NodeID, k wire.Kind, slot, ci int) {
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
// its node, since the rows are only meaningful against that node's layout;
// one that fails leaves the table empty.
func (t *Table[S]) State(c *wire.Coder) {
	wire.List(c, &t.Sess, &t.lv.sess, func(c *wire.Coder, s *Session[S]) {
		c.Int(&s.ID)
		if t.lv.Rec != nil {
			t.lv.Rec(c, &s.Rec)
		}
	})
	if c.Loading() && len(t.Sess) > 0 && t.me < 0 {
		c.Fail("ctree: state for %d sessions loaded into a table that does not know its node", len(t.Sess))
	}
	c.Raw(&t.Rows, len(t.Sess)*int(t.stride), &t.lv.bytes)
	if c.Failed() { // never leave rows and session table out of step
		t.Reset()
	}
}
