package reg

import (
	"bytes"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

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

// clientsByNode is one level's callbacks: it routes each call to the
// client of the node it carries.
type clientsByNode []*client

func (cs clientsByNode) Registered(n *async.Node, c cover.ClusterID, s int) {
	cs[n.ID()].Registered(n, c, s)
}

func (cs clientsByNode) GoAhead(n *async.Node, c cover.ClusterID, s int) { cs[n.ID()].GoAhead(n, c, s) }

// TestRegWideStarCopies drives two sessions over a star of 70 two-node
// paths, on one NewLevel level of modules: the hub has 70 child-edge marks
// per record, the middle nodes relay (so sessions reach them through Recv,
// and invokers wait on them while an R is in flight), and at every few
// events every module's codec copy must equal it.
func TestRegWideStarCopies(t *testing.T) {
	g := graph.StarOfPaths(70, 2)
	cov := cover.BFSTree(g, 0)
	w := &world{expected: 2 * g.N()}
	clients := make(clientsByNode, g.N())
	mods := NewLevel(make([]Module, g.N()), protoReg, cov, clients, nil)
	sim := async.New(g, async.SeededRandom{Seed: 6}, func(id graph.NodeID) async.Handler {
		cl := &client{
			w:        w,
			mod:      &mods[id],
			sessions: map[int][]cover.ClusterID{0: {0}, 5: {0}},
			reged:    make(map[[2]int]bool),
			derged:   make(map[[2]int]bool),
		}
		clients[id] = cl
		mux := async.NewMux()
		mux.Register(protoReg, cl.mod)
		mux.Register(protoOrch, cl)
		return mux
	})
	sawInvokers := false
	for done := false; !done; {
		done = sim.RunSteps(40)
		for id := range mods {
			sawInvokers = sawInvokers || len(mods[id].inv) > 0
			checkCopies(t, graph.NodeID(id), &mods[id])
		}
	}
	if !sawInvokers {
		t.Fatal("no stop caught a waiting invoker; the case no longer covers that list")
	}
	if v := mods[0].t.View(); v.Stride() != 1+70 {
		t.Fatalf("hub record is %d bytes, want a head byte plus 70 edge marks", v.Stride())
	}
	for id := range mods {
		for _, s := range []int{0, 5} {
			if !mods[id].LocalDone(0, s) {
				t.Fatalf("node %d never freed in session %d", id, s)
			}
		}
	}
}
