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
	for k := wire.Kind(1); k <= 4; k++ {
		for _, session := range []int{3, 1 << 40, 3} {
			slot, ci := tb.Recv(body(k, 0, session))
			if tb.Sess[slot].ID != session || tb.Trees[ci].ID != 0 {
				t.Fatalf("kind %d: session %d cluster 0 resolved to (%d, %d)", k, session, tb.Sess[slot].ID, tb.Trees[ci].ID)
			}
		}
	}
	if len(tb.Sess) != 2 {
		t.Fatalf("%d slots, want one per distinct session", len(tb.Sess))
	}
}
