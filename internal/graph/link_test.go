package graph

import "testing"

func TestLinkIndexing(t *testing.T) {
	for _, g := range []*Graph{
		Path(9),
		Grid(4, 5),
		RandomConnected(40, 100, 3),
		complete(7),
	} {
		if g.Links() != 2*g.M() {
			t.Fatalf("Links() = %d, want %d", g.Links(), 2*g.M())
		}
		seen := make([]bool, g.Links())
		next := 0
		for v := 0; v < g.N(); v++ {
			if got := int(g.LinkOffset(NodeID(v))); got != next {
				t.Fatalf("LinkOffset(%d) = %d, want %d", v, got, next)
			}
			for i, nb := range g.Neighbors(NodeID(v)) {
				l := g.LinkOffset(NodeID(v)) + LinkID(i)
				if int(l) != next {
					t.Fatalf("node %d entry %d: link %d, want dense %d", v, i, l, next)
				}
				if seen[l] {
					t.Fatalf("link %d assigned twice", l)
				}
				seen[l] = true
				next++
				if got := g.LinkBetween(NodeID(v), nb.Node); got != l {
					t.Errorf("LinkBetween(%d,%d) = %d, want %d", v, nb.Node, got, l)
				}
				if g.LinkSrc(l) != NodeID(v) || g.LinkDst(l) != nb.Node {
					t.Errorf("link %d endpoints = (%d,%d), want (%d,%d)",
						l, g.LinkSrc(l), g.LinkDst(l), v, nb.Node)
				}
				r := g.ReverseLink(l)
				if g.LinkSrc(r) != nb.Node || g.LinkDst(r) != NodeID(v) {
					t.Errorf("ReverseLink(%d) = %d with endpoints (%d,%d), want (%d,%d)",
						l, r, g.LinkSrc(r), g.LinkDst(r), nb.Node, v)
				}
				if g.ReverseLink(r) != l {
					t.Errorf("ReverseLink not involutive at %d", l)
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			for u := 0; u < g.N(); u++ {
				has := g.HasEdge(NodeID(v), NodeID(u))
				l := g.LinkBetween(NodeID(v), NodeID(u))
				if has != (l >= 0) {
					t.Fatalf("LinkBetween(%d,%d) = %d but HasEdge = %v", v, u, l, has)
				}
			}
		}
	}
}
