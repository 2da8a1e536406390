package ctree

import (
	"fmt"
	"testing"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// starLevel is a level on one cluster tree over a star rooted at its hub.
func starLevel(leaves int) *Level[struct{}] {
	g, err := graph.FromSpec(fmt.Sprintf("star:%d", leaves+1))
	if err != nil {
		panic(err)
	}
	cov := cover.BFSTree(g, 0)
	return &Level[struct{}]{Cov: cov, ChildBits: 8}
}

// TestPayloadCodecRoundTrips: every kind a module sends resolves, through
// Recv, to the session's slot and the cluster's tree.
func TestPayloadCodecRoundTrips(t *testing.T) {
	lv := starLevel(3)
	tb := lv.NewTable()
	tb.Bind(2)
	v := tb.View()
	for k := wire.Kind(1); k <= 4; k++ {
		for _, session := range []int{3, 1 << 40, 3} {
			slot, ci := v.Recv(body(k, 0, session))
			if tb.Sess[slot].ID != session || v.Trees[ci].ID != 0 {
				t.Fatalf("kind %d: session %d cluster 0 resolved to (%d, %d)", k, session, tb.Sess[slot].ID, v.Trees[ci].ID)
			}
		}
	}
	if len(tb.Sess) != 2 {
		t.Fatalf("%d slots, want one per distinct session", len(tb.Sess))
	}
}

// TestRowLayout: on a cover whose nodes sit on several cluster trees, a
// row holds one record per tree in cov.Refs order, each a head byte and
// ChildBits bits per child in whole bytes, and the records tile the row.
func TestRowLayout(t *testing.T) {
	g, err := graph.FromSpec("grid:9x9")
	if err != nil {
		t.Fatal(err)
	}
	cov := cover.Build(g, 2)
	multi := false
	for _, bits := range []int{1, 8} {
		lv := &Level[struct{}]{Cov: cov, ChildBits: bits}
		for v := range graph.NodeID(g.N()) {
			tb := lv.NewTable()
			tb.Bind(v)
			view := tb.View()
			at := 0
			for ci, tr := range view.Trees {
				if got := view.At(1, ci) - view.Stride(); got != at {
					t.Fatalf("bits %d: node %d tree %d record at %d, want %d", bits, v, ci, got, at)
				}
				at += 1 + (len(cov.Children(tr))*bits+7)/8
			}
			if view.Stride() != at {
				t.Fatalf("bits %d: node %d row is %d bytes, its records %d", bits, v, view.Stride(), at)
			}
			multi = multi || len(view.Trees) > 1
		}
	}
	if !multi {
		t.Fatal("no node is on two trees; the case no longer covers record offsets")
	}
}
