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

// checkCopies requires clone == source == load(save(source)) for node id's
// module, loading into a module that no event has touched.
func checkCopies(t *testing.T, id graph.NodeID, m *Module) {
	t.Helper()
	want := saveModule(m)
	clone := New(m.proto, m.cov, m.cb, nil)
	m.CloneModuleInto(clone)
	if !bytes.Equal(saveModule(clone), want) {
		t.Fatalf("node %d: clone differs from source", id)
	}
	loaded := New(m.proto, m.cov, m.cb, nil)
	loaded.bind(id) // what Rebind does ahead of LoadState on a restored engine
	d := wire.NewDec(want, nil)
	loaded.LoadState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("node %d: load: %v (%d bytes left)", id, err, d.Remaining())
	}
	if !bytes.Equal(saveModule(loaded), want) {
		t.Fatalf("node %d: save+load differs from source", id)
	}
	if len(m.sessions) > 0 {
		d := wire.NewDec(want, nil)
		New(m.proto, m.cov, m.cb, nil).LoadState(d)
		if d.Err() == nil {
			t.Fatalf("node %d: a module that does not know its node accepted session rows", id)
		}
	}
}

// TestRegWideStarCopies drives two sessions over a star of 70 two-node
// paths: the hub has 70 child-edge marks per record, the middle nodes
// relay (so sessions reach them through Recv, and invokers wait on them
// while an R is in flight), and at every few events all three ways of
// copying every module must agree.
func TestRegWideStarCopies(t *testing.T) {
	g := graph.StarOfPaths(70, 2)
	cov := cover.NewExplicit(g.N(), g.N(), []*cover.Cluster{cover.BFSTreeCluster(g, 0)})
	w := &world{expected: 2 * g.N()}
	mods := make([]*Module, g.N())
	clients := make([]*client, g.N())
	sim := async.New(g, async.SeededRandom{Seed: 6}, func(id graph.NodeID) async.Handler {
		cl := &client{
			w:        w,
			sessions: map[int][]cover.ClusterID{0: {0}, 5: {0}},
			reged:    make(map[[2]int]bool),
			derged:   make(map[[2]int]bool),
		}
		mods[id] = New(protoReg, cov, cl, nil)
		cl.mod = mods[id]
		clients[id] = cl
		mux := async.NewMux()
		mux.Register(protoReg, cl.mod)
		mux.Register(protoOrch, cl)
		return mux
	})
	sawInvokers := false
	for done := false; !done; {
		done = sim.RunSteps(40)
		for id, m := range mods {
			sawInvokers = sawInvokers || len(m.inv) > 0
			checkCopies(t, graph.NodeID(id), m)
		}
	}
	if !sawInvokers {
		t.Fatal("no stop caught a waiting invoker; the case no longer covers that list")
	}
	if got := len(mods[0].rowInit); got != 1+70 {
		t.Fatalf("hub record is %d bytes, want a head byte plus 70 edge marks", got)
	}
	for id, m := range mods {
		for _, s := range []int{0, 5} {
			if !m.LocalDone(0, s) {
				t.Fatalf("node %d never freed in session %d", id, s)
			}
		}
	}
}
