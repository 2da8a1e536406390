// Package ctree lays out one node's side of the cluster trees of one sparse
// cover: the per-cluster waves of registration (internal/reg, §3.2) and
// gather (internal/gather, §3.1) both keep one record per (session, cluster
// tree) at every tree node, and both keep them in a Table.
//
// A session gets a compact slot on first sight (never its raw id — the
// synchronizer's sessions are sparse in id space), slot s owns row
// Rows[s*stride:(s+1)*stride], and a row holds one record per cluster tree
// the node is on, in cov.TreeOf(me) order. A record is a head byte followed
// by whatever the module keeps per tree child; its length comes from the
// Level. Cloning a table is two copies, and a snapshot is the session table
// and the rows as they stand. Code addresses records by offset and never
// holds a sub-slice across a callback: callbacks can open sessions, which
// grows Rows.
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

// Tree is the node's place on one cluster tree, resolved once at bind so no
// event searches the cluster tree again.
type Tree struct {
	ID       cover.ClusterID
	Off      int32          // record offset in a row
	Member   bool           // the node is a member (terminal) of the cluster
	Parent   graph.NodeID   // -1 at the root
	Children []graph.NodeID // ascending; the cluster tree's own storage
}

// Session is one slot of the session table: the session id and the
// module's per-session record S.
type Session[S any] struct {
	ID  int
	Rec S
}

// Level is the configuration every node's table on one cover level shares,
// and the slabs those tables carve from: the tree refs at bind, and the
// session tables and rows as they grow. A module keeps one Level per cover
// level, behind one pointer, and never copies it per node.
type Level[S any] struct {
	Proto   async.Proto
	Cov     *cover.Cover
	StageOf func(session int) int // link scheduling stage of a session (Lemma 2.5); nil for zero
	// RecLen is the record length of a tree node with that many children.
	RecLen func(children int) int
	// RootHead is the head byte of a fresh record at the cluster root
	// (every other fresh record is zero).
	RootHead uint8
	// Rec codes S after the session id; nil for none.
	Rec func(*wire.Coder, *S)

	trees slab.Slab[Tree]
	bytes slab.Slab[byte]
	sess  slab.Slab[Session[S]]
}

// NewTable returns an unbound table on lv.
func (lv *Level[S]) NewTable() Table[S] { return Table[S]{lv: lv} }

// Table is one node's sessions × cluster-tree records on one cover.
type Table[S any] struct {
	lv      *Level[S]
	me      graph.NodeID
	bound   bool
	stride  int32 // row length in bytes
	Members int32 // len(cov.MemberOf(me))
	Trees   []Tree
	Sess    []Session[S] // by slot, in first-sight order
	Rows    []byte       // len(Sess) rows
}

// Bind fixes the node the table serves and derives its tree refs into the
// level's slabs. The engine binds each handler once, when it builds it.
func (t *Table[S]) Bind(me graph.NodeID) {
	t.bound, t.me = true, me
	ids := t.lv.Cov.TreeOf(me)
	member := t.lv.Cov.MemberOf(me)
	t.Members = int32(len(member))
	t.Trees = t.lv.trees.Carve(len(ids))
	stride := 0
	for _, cid := range ids {
		cl := t.lv.Cov.Cluster(cid)
		tr := Tree{ID: cid, Off: int32(stride), Parent: -1, Children: cl.ChildrenOf(me)}
		if len(member) > 0 && member[0] == cid { // both lists ascend
			tr.Member = true
			member = member[1:]
		}
		if cl.Root != me {
			tr.Parent, _ = cl.ParentOf(me)
		}
		t.Trees = append(t.Trees, tr)
		stride += t.lv.RecLen(len(tr.Children))
	}
	t.stride = int32(stride)
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
		for _, tr := range t.Trees {
			if tr.Parent < 0 {
				t.Rows[n+int(tr.Off)] = t.lv.RootHead
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

// At returns the offset of (slot, ci)'s record in Rows.
func (t *Table[S]) At(slot, ci int) int { return slot*int(t.stride) + int(t.Trees[ci].Off) }

// Child returns child's position in tree ci's children.
func (t *Table[S]) Child(ci int, child graph.NodeID) int {
	i, ok := slices.BinarySearch(t.Trees[ci].Children, child)
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
	if c.Loading() && len(t.Sess) > 0 && !t.bound {
		c.Fail("ctree: state for %d sessions loaded into a table that does not know its node", len(t.Sess))
	}
	c.Raw(&t.Rows, len(t.Sess)*int(t.stride), &t.lv.bytes)
	if c.Failed() { // never leave rows and session table out of step
		t.Reset()
	}
}
