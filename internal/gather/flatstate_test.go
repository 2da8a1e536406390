package gather

import (
	"bytes"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Unit cases for the flat module state: a module's codec copy equals it
// mid-run, and the layout copes with the shapes that do not come up
// on small random graphs.

func saveModule(m *Module) []byte {
	var e wire.Enc
	m.SaveState(&e)
	return append([]byte(nil), e.Bytes()...)
}

// checkCopies requires source == load(save(source)) for node id's module,
// loading into a module that no event has touched, through an arena-less
// decoder as ModeSpec's clones do.
func checkCopies(t *testing.T, id graph.NodeID, m *Module) {
	t.Helper()
	want := saveModule(m)
	loaded := &Module{lv: m.lv, t: m.lv.NewTable()}
	loaded.t.Bind(id) // what Rebind does when the engine builds a clone target
	d := wire.NewDec(want, nil)
	loaded.LoadState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("node %d: load: %v (%d bytes left)", id, err, d.Remaining())
	}
	if !bytes.Equal(saveModule(loaded), want) {
		t.Fatalf("node %d: save+load differs from source", id)
	}
	if len(m.t.Sess) > 0 {
		d := wire.NewDec(want, nil)
		(&Module{lv: m.lv, t: m.lv.NewTable()}).LoadState(d)
		if d.Err() == nil {
			t.Fatalf("node %d: a module that does not know its node accepted session rows", id)
		}
	}
}

// stepGather runs sim to quiescence, checking every module's copies every
// stride events.
func stepGather(t *testing.T, sim *async.Sim, mods []*Module, stride uint64) async.Result {
	t.Helper()
	for done := false; !done; {
		done = sim.RunSteps(stride)
		for id, m := range mods {
			checkCopies(t, graph.NodeID(id), m)
		}
	}
	return sim.FinishResult()
}

// clientsByNode is one level's callbacks: it routes each call to the
// client of the node it carries.
type clientsByNode []*gclient

func (cs clientsByNode) NeighborhoodDone(n *async.Node, s int) { cs[n.ID()].NeighborhoodDone(n, s) }

// TestGatherWideStar: the hub of an 80-star has 79 tree children, so its
// childDone bits span ten bytes of the record. The modules are one
// NewLevel level.
func TestGatherWideStar(t *testing.T) {
	g := specGraph("star:80")
	cov := cover.BFSTree(g, 0)
	w := &world{}
	clients := make(clientsByNode, g.N())
	level := NewLevel(make([]Module, g.N()), protoGather, cov, clients, nil)
	mods := make([]*Module, g.N())
	sim := async.New(g, async.SeededRandom{Seed: 4}, func(id graph.NodeID) async.Handler {
		mods[id] = &level[id]
		clients[id] = &gclient{w: w, mod: mods[id]}
		mux := async.NewMux()
		mux.Register(protoGather, mods[id])
		mux.Register(protoFlood, clients[id])
		return mux
	})
	res := stepGather(t, sim, mods, 25)
	if len(res.Outputs) != g.N() {
		t.Fatalf("only %d/%d nodes finished gathering", len(res.Outputs), g.N())
	}
	if v := mods[0].t.View(); v.Stride() != 1+10 {
		t.Fatalf("hub record is %d bytes, want a flags byte plus 10 bytes of child bits", v.Stride())
	}
}

// lateClient begins its session only when the flood reaches it; node 0
// marks itself done at Start, long before that.
type lateClient struct {
	mod   *Module
	start graph.NodeID
	seen  bool
}

func (c *lateClient) Start(n *async.Node) {
	switch n.ID() {
	case 0:
		c.mod.MarkDone(n, 3)
	case c.start:
		c.onFlood(n)
	}
}

func (c *lateClient) Recv(n *async.Node, _ graph.NodeID, _ async.Msg) { c.onFlood(n) }
func (c *lateClient) Ack(*async.Node, graph.NodeID, async.Msg)        {}

func (c *lateClient) onFlood(n *async.Node) {
	if c.seen {
		return
	}
	c.seen = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: protoFlood, Body: wire.Tag(1)})
	}
	c.mod.MarkDone(n, 3)
}

func (c *lateClient) NeighborhoodDone(n *async.Node, _ int) { n.Output(true) }

// TestGatherSessionFirstSeenByRecv: on a path whose cluster tree is rooted
// at the far end, node 0's report reaches node 1 before node 1 has begun
// the session — the slot is opened by Recv, and Begin must find it.
func TestGatherSessionFirstSeenByRecv(t *testing.T) {
	g := graph.Path(12)
	far := graph.NodeID(g.N() - 1)
	cov := cover.BFSTree(g, far)
	mods := make([]*Module, g.N())
	sim := async.New(g, async.Fixed{D: 1}, func(id graph.NodeID) async.Handler {
		cl := &lateClient{start: far}
		cl.mod = New(protoGather, cov, cl, nil)
		mods[id] = cl.mod
		mux := async.NewMux()
		mux.Register(protoGather, cl.mod)
		mux.Register(protoFlood, cl)
		return mux
	})
	sim.RunSteps(2) // node 0's report (and the far end's first flood hop) delivered
	m := mods[1]
	slot := m.t.Lookup(3)
	if slot < 0 || m.sess(slot).began {
		t.Fatalf("node 1: session 3 slot %d, want one opened by Recv and not yet begun", slot)
	}
	if v := m.t.View(); v.Rows[v.At(slot, 0)+1]&1 == 0 {
		t.Fatal("node 1: child 0's report was not recorded")
	}
	res := stepGather(t, sim, mods, 7)
	if len(res.Outputs) != g.N() {
		t.Fatalf("only %d/%d nodes finished gathering", len(res.Outputs), g.N())
	}
}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}
