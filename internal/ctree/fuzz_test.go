package ctree_test

import (
	"bytes"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/reg"
	"repro/internal/wire"
)

// starter runs start at its node's Start.
type starter struct{ start func(n *async.Node) }

func (s starter) Start(n *async.Node)                     { s.start(n) }
func (starter) Recv(*async.Node, graph.NodeID, async.Msg) {}
func (starter) Ack(*async.Node, graph.NodeID, async.Msg)  {}

// regClient deregisters each node as soon as its registration completes.
type regClient struct{ mods []reg.Module }

func (c *regClient) Registered(n *async.Node, cl cover.ClusterID, s int) {
	c.mods[n.ID()].Deregister(n, cl, s)
}
func (*regClient) GoAhead(*async.Node, cover.ClusterID, int) {}

type gatherClient struct{}

func (gatherClient) NeighborhoodDone(*async.Node, int) {}

// wideStar is one run of one level of modules on a wide star whose one
// cluster tree is rooted at the hub: live returns node id's module in the
// run, and fresh the module of a new level of one bound to the same node.
type wideStar struct {
	sim   *async.Sim
	live  func(id graph.NodeID) wire.StateCodec
	fresh func(id graph.NodeID) wire.StateCodec
}

// newWideStar hosts mods, one NewLevel level, on g, calls start at each
// node's Start, and keeps the nodes so that the modules fresh returns can
// bind to them.
func newWideStar[M any, PM interface {
	*M
	async.Module
	wire.StateCodec
	async.Rebinder
}](g *graph.Graph, mods []M, fresh func() PM, start func(n *async.Node, m PM)) *wideStar {
	nodes := make([]*async.Node, g.N())
	sim := async.New(g, async.SeededRandom{Seed: 6}, func(id graph.NodeID) async.Handler {
		m := PM(&mods[id])
		mux := async.NewMux()
		mux.Register(1, m)
		mux.Register(2, starter{func(n *async.Node) { nodes[id] = n; start(n, m) }})
		return mux
	})
	return &wideStar{
		sim:  sim,
		live: func(id graph.NodeID) wire.StateCodec { return PM(&mods[id]) },
		fresh: func(id graph.NodeID) wire.StateCodec {
			m := fresh()
			m.Rebind(nodes[id])
			return m
		},
	}
}

// fuzzStars returns the TestRegWideStarCopies and TestGatherWideStar
// shapes: registration in sessions 0 and 5 on a star of 70 two-node paths,
// and gather in sessions 0 and 1 on an 80-star.
func fuzzStars() []*wideStar {
	rg := graph.StarOfPaths(70, 2)
	rc := &regClient{}
	rcov := cover.BFSTree(rg, 0)
	rc.mods = reg.NewLevel(make([]reg.Module, rg.N()), 1, rcov, rc, nil)
	regs := newWideStar(rg, rc.mods, func() *reg.Module { return reg.New(1, rcov, rc, nil) },
		func(n *async.Node, m *reg.Module) {
			m.Register(n, 0, 0)
			m.Register(n, 0, 5)
		})
	gg, err := graph.FromSpec("star:80")
	if err != nil {
		panic(err)
	}
	gcov := cover.BFSTree(gg, 0)
	gathers := newWideStar(gg, gather.NewLevel(make([]gather.Module, gg.N()), 1, gcov, gatherClient{}, nil),
		func() *gather.Module { return gather.New(1, gcov, gatherClient{}, nil) },
		func(n *async.Node, m *gather.Module) {
			m.Begin(n, 1)
			m.MarkDone(n, 0)
		})
	return []*wideStar{regs, gathers}
}

// fuzzNodes are the nodes whose modules take frames: the hub, a relay
// (registration) or leaf (gather), and a path end or leaf.
var fuzzNodes = []graph.NodeID{0, 1, 2}

func saveState(m wire.StateCodec) []byte {
	var e wire.Enc
	m.SaveState(&e)
	return append([]byte(nil), e.Bytes()...)
}

// FuzzModuleLoadState feeds arbitrary bytes to LoadState on bound
// registration and gather modules. A frame's first byte picks the module
// and node; the rest is the state. LoadState must not panic, must leave
// the module empty when it fails, and must save back exactly the bytes it
// accepted. The seeds are the modules' states at every 20th event of a
// run, so mutations start from live rows, session tables and invokers.
func FuzzModuleLoadState(f *testing.F) {
	stars := fuzzStars()
	for si, st := range stars {
		for done := false; !done; {
			done = st.sim.RunSteps(20)
			for ni, id := range fuzzNodes {
				f.Add(append([]byte{byte(si*len(fuzzNodes) + ni)}, saveState(st.live(id))...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		k := int(frame[0]) % (len(stars) * len(fuzzNodes))
		st, id := stars[k/len(fuzzNodes)], fuzzNodes[k%len(fuzzNodes)]
		m := st.fresh(id)
		empty := saveState(m)
		d := wire.NewDec(frame[1:], nil)
		m.LoadState(d)
		got := saveState(m)
		if d.Err() != nil {
			if !bytes.Equal(got, empty) {
				t.Fatalf("node %d: refused frame (%v) left state behind", id, d.Err())
			}
			return
		}
		if accepted := frame[1 : len(frame)-d.Remaining()]; !bytes.Equal(got, accepted) {
			t.Fatalf("node %d: accepted %d bytes, saves %d different ones", id, len(accepted), len(got))
		}
	})
}
