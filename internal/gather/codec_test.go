package gather

import (
	"slices"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// bodyProbe is a Module that checks every tree message it receives: the
// body resolves, on the receiver's table, to the session and the cluster
// it carries, and the sender is the receiver's parent or child on that
// cluster's tree.
type bodyProbe struct {
	*Module
	tb       *testing.T
	kinds    map[wire.Kind]int
	clusters map[cover.ClusterID]bool
}

func (p *bodyProbe) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	p.Module.Recv(n, from, m)
	b, tab := m.Body, p.Module.t.View()
	c, s := cover.ClusterID(b.A), int(b.B)
	slot, ci := tab.Lookup(s), tab.Index(c)
	if slot < 0 || ci < 0 || s != 0 {
		p.tb.Fatalf("node %d: kind %d body (cluster %d, session %d) resolved to slot %d, tree %d", n.ID(), b.Kind, c, s, slot, ci)
	}
	if tr := tab.Trees[ci]; tr.Parent != from && !slices.Contains(tab.Children(ci), from) {
		p.tb.Fatalf("node %d: kind %d body names cluster %d, whose tree does not join it to sender %d", n.ID(), b.Kind, c, from)
	}
	p.kinds[b.Kind]++
	p.clusters[c] = true
}

// TestPayloadCodecRoundTrips covers both gather kinds: in a gather over a
// cover of many clusters, every body a module receives resolves on the
// receiver to the cluster and session it names.
func TestPayloadCodecRoundTrips(t *testing.T) {
	g := graph.Path(20)
	cov := cover.Build(g, 2)
	w := &world{}
	kinds, clusters := map[wire.Kind]int{}, map[cover.ClusterID]bool{}
	sim := async.New(g, async.SeededRandom{Seed: 2}, func(id graph.NodeID) async.Handler {
		cl := &gclient{w: w}
		p := &bodyProbe{Module: New(protoGather, cov, cl, nil), tb: t, kinds: kinds, clusters: clusters}
		cl.mod = p.Module
		mux := async.NewMux()
		mux.Register(protoGather, p)
		mux.Register(protoFlood, cl)
		return mux
	})
	if res := sim.Run(); len(res.Outputs) != g.N() {
		t.Fatalf("only %d/%d nodes finished gathering", len(res.Outputs), g.N())
	}
	if kinds[kindDoneUp] == 0 || kinds[kindConfirmDown] == 0 || len(kinds) != 2 {
		t.Fatalf("kinds received: %v, want both gather kinds", kinds)
	}
	if len(clusters) < 2 {
		t.Fatalf("bodies named %d clusters; the case no longer varies the cluster field", len(clusters))
	}
}
