package reg

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
	sessions map[int]bool
}

func (p *bodyProbe) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	p.Module.Recv(n, from, m)
	b, tab := m.Body, p.Module.t.View()
	c, s := cover.ClusterID(b.A), int(b.B)
	slot, ci := tab.Lookup(s), tab.Index(c)
	if slot < 0 || ci < 0 {
		p.tb.Fatalf("node %d: kind %d body (cluster %d, session %d) resolved to slot %d, tree %d", n.ID(), b.Kind, c, s, slot, ci)
	}
	if tr := tab.Trees[ci]; tr.Parent != from && !slices.Contains(tab.Children(ci), from) {
		p.tb.Fatalf("node %d: kind %d body names cluster %d, whose tree does not join it to sender %d", n.ID(), b.Kind, c, from)
	}
	p.kinds[b.Kind]++
	p.clusters[c] = true
	p.sessions[s] = true
}

// TestPayloadCodecRoundTrips covers every wave-registration kind: in a
// two-session wave over a cover of many clusters, every body a module
// receives resolves on the receiver to the cluster and session it names.
func TestPayloadCodecRoundTrips(t *testing.T) {
	g := graph.Path(20)
	cov := cover.Build(g, 2)
	sessions := []int{3, 1 << 40}
	w := &world{}
	kinds, clusters, seen := map[wire.Kind]int{}, map[cover.ClusterID]bool{}, map[int]bool{}
	sim := async.New(g, async.SeededRandom{Seed: 2}, func(id graph.NodeID) async.Handler {
		cl := &client{
			w:        w,
			sessions: map[int][]cover.ClusterID{},
			reged:    make(map[[2]int]bool),
			derged:   make(map[[2]int]bool),
		}
		if ids := cov.MemberOf(id); len(ids) > 0 {
			for _, s := range sessions {
				cl.sessions[s] = append([]cover.ClusterID(nil), ids...)
				w.expected += len(ids)
			}
		}
		p := &bodyProbe{Module: New(protoReg, cov, cl, nil), tb: t, kinds: kinds, clusters: clusters, sessions: seen}
		cl.mod = p
		mux := async.NewMux()
		mux.Register(protoReg, p)
		mux.Register(protoOrch, cl)
		return mux
	})
	sim.Run()
	for _, k := range []wire.Kind{kindRegUp, kindRegDone, kindDeregUp, kindGoAhead} {
		if kinds[k] == 0 {
			t.Fatalf("no message of kind %d was received", k)
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("kinds received: %v, want the four registration kinds", kinds)
	}
	if len(clusters) < 2 || len(seen) != len(sessions) {
		t.Fatalf("bodies named %d clusters and sessions %v; the case no longer varies both fields", len(clusters), seen)
	}
}

// TestNaiveCodecRoundTrips covers every naive-scheme kind, origin included.
func TestNaiveCodecRoundTrips(t *testing.T) {
	for _, k := range []wire.Kind{nkReg, nkRegAck, nkDereg, nkDeregAck, nkGo} {
		m := naivePayload{Kind: k, Cluster: cover.ClusterID(5), Session: 2, Origin: graph.NodeID(31)}
		if got := decNaive(encNaive(m)); got != m {
			t.Fatalf("round trip: %+v vs %+v", got, m)
		}
	}
}
