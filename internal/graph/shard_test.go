package graph

import (
	"reflect"
	"testing"
)

// Golden pins for the contiguous partitioner on the implicit-generator
// suite. The cuts are load-bearing: the shard coordinator ships them to
// workers and the cross-shard protocol's determinism proof assumes every
// process derives the identical partition, so a drifting cut means the
// partitioner stopped being a pure function of the graph. The pinned
// values also document that refinement finds the structural seams: grid3d
// cuts land on whole z-planes (144 boundary edges = one 12x12 plane) and
// ring-of-cliques cuts land between cliques (2 severed ring edges per
// cut).
func TestPartitionGolden(t *testing.T) {
	cases := []struct {
		spec  string
		k     int
		cuts  []NodeID
		cross int // directed boundary links over the whole partition
		// per-shard boundary-table pins: count and sum of Link+Dst over
		// all entries (a cheap digest that moves if any entry moves)
		boundary []int
		bsum     []int
	}{
		{"grid3d:12x12x12", 2, []NodeID{0, 864, 1728}, 288,
			[]int{144, 144}, []int{760512, 172320}},
		{"grid3d:12x12x12", 4, []NodeID{0, 432, 864, 1296, 1728}, 864,
			[]int{144, 288, 288, 144}, []int{345792, 538848, 663264, 234528}},
		{"pa:n=2000,m=3,seed=7", 2, []NodeID{0, 382, 2000}, 5768,
			[]int{2884, 2884}, []int{10488547, 10196672}},
		{"ring:k=50,c=6", 2, []NodeID{0, 132, 300}, 4,
			[]int{2, 2}, []int{1139, 1021}},
		{"ring:k=50,c=6", 4, []NodeID{0, 66, 144, 216, 300}, 8,
			[]int{2, 2, 2, 2}, []int{721, 624, 742, 657}},
	}
	for _, c := range cases {
		g, err := FromSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		p := PartitionContiguous(g, c.k)
		if !reflect.DeepEqual(p.Cuts(), c.cuts) {
			t.Errorf("%s k=%d: cuts %v, want %v", c.spec, c.k, p.Cuts(), c.cuts)
			continue
		}
		if got := p.CrossLinks(g); got != c.cross {
			t.Errorf("%s k=%d: %d cross links, want %d", c.spec, c.k, got, c.cross)
		}
		for s := 0; s < c.k; s++ {
			lo, hi := p.Range(s)
			sub := g.Subrange(lo, hi)
			b := sub.BoundaryLinks()
			sum := 0
			for _, bl := range b {
				sum += int(bl.Link) + int(bl.Dst)
			}
			if len(b) != c.boundary[s] || sum != c.bsum[s] {
				t.Errorf("%s k=%d shard %d: boundary table (%d, digest %d), want (%d, %d)",
					c.spec, c.k, s, len(b), sum, c.boundary[s], c.bsum[s])
			}
		}
	}
}

// TestSubrangeView checks that a Subrange view answers every accessor the
// engines use identically to the whole graph, modulo the local link
// renumbering: Neighbors/Degree/LinkBetween/LinkOffset/LinkSrc/LinkDst
// agree after shifting links by the shard's first global link, and
// ReverseLink round-trips for interior links while boundary links report
// -1.
func TestSubrangeView(t *testing.T) {
	for _, spec := range []string{"grid3d:7x5x3", "pa:n=300,m=2,seed=3", "ring:k=9,c=4"} {
		g, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		p := PartitionContiguous(g, 3)
		for s := 0; s < p.K(); s++ {
			lo, hi := p.Range(s)
			sub := g.Subrange(lo, hi)
			if sub.N() != g.N() || sub.NLocal() != int(hi-lo) || sub.NodeBase() != lo || !sub.Sub() {
				t.Fatalf("%s shard %d: window N=%d NLocal=%d base=%d", spec, s, sub.N(), sub.NLocal(), sub.NodeBase())
			}
			shift := int(g.LinkOffset(lo))
			for v := lo; v < hi; v++ {
				if sub.Degree(v) != g.Degree(v) {
					t.Fatalf("%s shard %d: Degree(%d) = %d, want %d", spec, s, v, sub.Degree(v), g.Degree(v))
				}
				if got, want := int(sub.LinkOffset(v))+shift, int(g.LinkOffset(v)); got != want {
					t.Fatalf("%s shard %d: LinkOffset(%d) local+shift = %d, want %d", spec, s, v, got, want)
				}
				for i, nb := range sub.Neighbors(v) {
					l, wl := sub.LinkOffset(v)+LinkID(i), g.LinkOffset(v)+LinkID(i)
					if wnb := g.Neighbors(v)[i]; nb != wnb {
						t.Fatalf("%s shard %d: Neighbors(%d)[%d] = %+v, want %+v", spec, s, v, i, nb, wnb)
					}
					if got := sub.LinkBetween(v, nb.Node); got != l {
						t.Fatalf("%s shard %d: LinkBetween(%d,%d) = %d, want %d", spec, s, v, nb.Node, got, l)
					}
					if got := sub.LinkSrc(l); got != v {
						t.Fatalf("%s shard %d: LinkSrc(%d) = %d, want %d", spec, s, l, got, v)
					}
					if got := sub.LinkDst(l); got != nb.Node {
						t.Fatalf("%s shard %d: LinkDst(%d) = %d, want %d", spec, s, l, got, nb.Node)
					}
					rv := sub.ReverseLink(l)
					if nb.Node >= lo && nb.Node < hi {
						if int(rv)+shift != int(g.ReverseLink(wl)) {
							t.Fatalf("%s shard %d: ReverseLink(%d) = %d, want %d",
								spec, s, l, rv, int(g.ReverseLink(wl))-shift)
						}
					} else if rv != -1 {
						t.Fatalf("%s shard %d: boundary ReverseLink(%d) = %d, want -1", spec, s, l, rv)
					}
				}
			}
			// The boundary table and the rev == -1 links must be the same set.
			nb := 0
			for l := 0; l < sub.Links(); l++ {
				if sub.ReverseLink(LinkID(l)) < 0 {
					nb++
				}
			}
			if b := sub.BoundaryLinks(); len(b) != nb {
				t.Fatalf("%s shard %d: %d boundary entries, %d rev=-1 links", spec, s, len(b), nb)
			}
			// Exact closed-form footprint: the 8 B flat entry and the 4 B
			// reverse link per local link, plus the offset column.
			want := int64(sub.Links())*12 + int64(sub.NLocal()+1)*4
			if got := sub.Footprint(); got != want {
				t.Fatalf("%s shard %d: Footprint() = %d, want %d", spec, s, got, want)
			}
		}
	}
}

// TestPartitionOwner checks Owner against the definition on every node,
// and the shipped-cuts round trip.
func TestPartitionOwner(t *testing.T) {
	g, err := FromSpec("pa:n=500,m=3,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7} {
		p := PartitionContiguous(g, k)
		q := PartitionFromCuts(p.Cuts())
		if !reflect.DeepEqual(p.Cuts(), q.Cuts()) {
			t.Fatalf("k=%d: cuts round trip %v -> %v", k, p.Cuts(), q.Cuts())
		}
		if p.K() != k {
			t.Fatalf("K() = %d, want %d", p.K(), k)
		}
		for v := NodeID(0); int(v) < g.N(); v++ {
			o := p.Owner(v)
			if lo, hi := p.Range(o); v < lo || v >= hi {
				t.Fatalf("k=%d: Owner(%d) = %d but range is [%d,%d)", k, v, o, lo, hi)
			}
		}
	}
	// Total link mass per shard stays within 2x of ideal on this skewed
	// graph: the balance window bounds how far refinement can wander.
	p := PartitionContiguous(g, 4)
	ideal := g.Links() / 4
	for s := 0; s < 4; s++ {
		lo, hi := p.Range(s)
		mass := int(g.LinkOffset(hi-1)) + g.Degree(hi-1) - int(g.LinkOffset(lo))
		if mass > 2*ideal {
			t.Errorf("shard %d holds %d links, ideal %d: balance window violated", s, mass, ideal)
		}
	}
}
