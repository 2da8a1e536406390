package gather

import (
	"fmt"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

const (
	protoGather async.Proto = 1
	protoFlood  async.Proto = 2
)

type evKind int

const (
	evMarked evKind = iota + 1
	evDone
)

type event struct {
	kind    evKind
	node    graph.NodeID
	session int
}

type world struct {
	log []event
}

// gclient marks its local process done when a flood message reaches it,
// then waits for NeighborhoodDone.
type gclient struct {
	w        *world
	mod      *Module
	flooded  bool
	useChain bool
	chain    *stagedGather
}

func (c *gclient) Start(n *async.Node) {
	if c.useChain {
		c.chain.Begin(n)
	} else {
		c.mod.Begin(n, 0)
	}
	if n.ID() == 0 {
		c.onFlood(n)
	}
}

func (c *gclient) Recv(n *async.Node, _ graph.NodeID, m async.Msg) {
	if m.Proto == protoFlood {
		c.onFlood(n)
	}
}

func (c *gclient) Ack(*async.Node, graph.NodeID, async.Msg) {}

func (c *gclient) onFlood(n *async.Node) {
	if c.flooded {
		return
	}
	c.flooded = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: protoFlood, Body: wire.Tag(1)})
	}
	c.w.log = append(c.w.log, event{kind: evMarked, node: n.ID()})
	if c.useChain {
		c.chain.MarkDone(n)
	} else {
		c.mod.MarkDone(n, 0)
	}
}

// NeighborhoodDone implements Callbacks.
func (c *gclient) NeighborhoodDone(n *async.Node, session int) {
	if c.useChain {
		c.chain.OnNeighborhoodDone(n, session)
		return
	}
	c.w.log = append(c.w.log, event{kind: evDone, node: n.ID(), session: session})
	n.Output(true)
}

func runGather(t *testing.T, g *graph.Graph, d int, adv async.Adversary) *world {
	t.Helper()
	cov := cover.Build(g, d)
	w := &world{}
	sim := async.New(g, adv, func(id graph.NodeID) async.Handler {
		cl := &gclient{w: w}
		cl.mod = New(protoGather, cov, cl, nil)
		mux := async.NewMux()
		mux.Register(protoGather, cl.mod)
		mux.Register(protoFlood, cl)
		return mux
	})
	res := sim.Run()
	if len(res.Outputs) != g.N() {
		t.Fatalf("adv=%s: only %d/%d nodes finished gathering", adv.Name(), len(res.Outputs), g.N())
	}
	return w
}

// checkOrdering: Done(v) must appear after Marked(u) for every u within
// distance radius of v.
func checkOrdering(t *testing.T, g *graph.Graph, radius int, log []event) {
	t.Helper()
	markedAt := map[graph.NodeID]int{}
	for i, e := range log {
		if e.kind == evMarked {
			markedAt[e.node] = i
		}
	}
	for i, e := range log {
		if e.kind != evDone {
			continue
		}
		for _, u := range g.Ball(e.node, radius) {
			at, ok := markedAt[u]
			if !ok || at > i {
				t.Fatalf("node %d heard neighborhood-done at %d before %d (dist<=%d) marked",
					e.node, i, u, radius)
			}
		}
	}
}

func TestGatherTheorem31(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"path30-d4", graph.Path(30), 4},
		{"grid6x6-d2", graph.Grid(6, 6), 2},
		{"er50-d3", graph.RandomConnected(50, 110, 12), 3},
	}
	for _, tc := range cases {
		for _, adv := range async.StandardAdversaries(tc.g.N(), 9) {
			t.Run(fmt.Sprintf("%s-%s", tc.name, adv.Name()), func(t *testing.T) {
				w := runGather(t, tc.g, tc.d, adv)
				checkOrdering(t, tc.g, tc.d, w.log)
			})
		}
	}
}

func TestGatherMessageBound(t *testing.T) {
	g := graph.Grid(7, 7)
	d := 2
	cov := cover.Build(g, d)
	w := &world{}
	sim := async.New(g, async.Fixed{D: 1}, func(id graph.NodeID) async.Handler {
		cl := &gclient{w: w}
		cl.mod = New(protoGather, cov, cl, nil)
		mux := async.NewMux()
		mux.Register(protoGather, cl.mod)
		mux.Register(protoFlood, cl)
		return mux
	})
	res := sim.Run()
	// 2 messages (up+down) per tree edge per cluster; tree edges total =
	// sum over clusters of |tree|-1.
	budget := uint64(0)
	for _, cl := range cov.Clusters {
		budget += uint64(2 * len(cl.Nodes))
	}
	if res.PerProto[protoGather] > budget {
		t.Fatalf("gather used %d messages, budget %d", res.PerProto[protoGather], budget)
	}
}

// chainClient wires stagedGather (Theorem 3.2) with L stages.
type chainWorld struct {
	w *world
	l int
}

func TestGatherChainTheorem32(t *testing.T) {
	g := graph.Path(40)
	d, l := 2, 3
	cov := cover.Build(g, d)
	w := &world{}
	sim := async.New(g, async.SeededRandom{Seed: 5}, func(id graph.NodeID) async.Handler {
		cl := &gclient{w: w, useChain: true}
		cl.mod = New(protoGather, cov, cl, nil)
		cl.chain = &stagedGather{
			Mod: cl.mod, L: l, Base: 0,
			Final: func(n *async.Node) {
				w.log = append(w.log, event{kind: evDone, node: n.ID()})
				n.Output(true)
			},
		}
		mux := async.NewMux()
		mux.Register(protoGather, cl.mod)
		mux.Register(protoFlood, cl)
		return mux
	})
	res := sim.Run()
	if len(res.Outputs) != g.N() {
		t.Fatalf("only %d/%d chain-finished", len(res.Outputs), g.N())
	}
	// Final(v) must come after every node within d·L marked done.
	checkOrdering(t, g, d*l, w.log)
}

func TestGatherChainAdversaries(t *testing.T) {
	g := graph.Grid(5, 5)
	d, l := 1, 4
	cov := cover.Build(g, d)
	for _, adv := range async.StandardAdversaries(g.N(), 2) {
		w := &world{}
		sim := async.New(g, adv, func(id graph.NodeID) async.Handler {
			cl := &gclient{w: w, useChain: true}
			cl.mod = New(protoGather, cov, cl, nil)
			cl.chain = &stagedGather{
				Mod: cl.mod, L: l, Base: 0,
				Final: func(n *async.Node) {
					w.log = append(w.log, event{kind: evDone, node: n.ID()})
					n.Output(true)
				},
			}
			mux := async.NewMux()
			mux.Register(protoGather, cl.mod)
			mux.Register(protoFlood, cl)
			return mux
		})
		res := sim.Run()
		if len(res.Outputs) != g.N() {
			t.Fatalf("%s: only %d/%d chain-finished", adv.Name(), len(res.Outputs), g.N())
		}
		checkOrdering(t, g, d*l, w.log)
	}
}

func TestDoneQuery(t *testing.T) {
	g := graph.Path(6)
	cov := cover.Build(g, 2)
	var mods []*Module
	w := &world{}
	sim := async.New(g, async.Fixed{D: 1}, func(id graph.NodeID) async.Handler {
		cl := &gclient{w: w}
		cl.mod = New(protoGather, cov, cl, nil)
		mods = append(mods, cl.mod)
		mux := async.NewMux()
		mux.Register(protoGather, cl.mod)
		mux.Register(protoFlood, cl)
		return mux
	})
	sim.Run()
	for i, m := range mods {
		if !m.Done(0) {
			t.Fatalf("node %d not Done after run", i)
		}
		if m.Done(99) {
			t.Fatalf("node %d Done for unknown session", i)
		}
	}
}

// stagedGather runs Theorem 3.2's staged gather: stage i learns that the
// (i+1)·d-neighborhood is done, by gathering "stage i-1 done" in the
// d-cover. Sessions used are base+0 … base+(L-1).
type stagedGather struct {
	Mod  *Module
	L    int // number of stages ℓ
	Base int // first session id
	// Final fires when the d·L-neighborhood is done with P.
	Final func(n *async.Node)

	marked bool
	stage  int
}

// Begin announces all chain sessions at this node (relays included).
func (ch *stagedGather) Begin(n *async.Node) {
	for i := 0; i < ch.L; i++ {
		ch.Mod.Begin(n, ch.Base+i)
	}
}

// MarkDone records local completion of P, starting stage 0.
func (ch *stagedGather) MarkDone(n *async.Node) {
	if ch.marked {
		return
	}
	ch.marked = true
	ch.Begin(n)
	ch.Mod.MarkDone(n, ch.Base)
}

// OnNeighborhoodDone must be called from the owner's Callbacks for sessions
// in [Base, Base+L); it advances the chain and fires Final at the end.
func (ch *stagedGather) OnNeighborhoodDone(n *async.Node, session int) {
	if session != ch.Base+ch.stage {
		panic(fmt.Sprintf("gather: chain got session %d at stage %d", session, ch.stage))
	}
	ch.stage++
	if ch.stage == ch.L {
		if ch.Final != nil {
			ch.Final(n)
		}
		return
	}
	ch.Mod.MarkDone(n, ch.Base+ch.stage)
}
