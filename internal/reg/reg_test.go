package reg

import (
	"fmt"
	"testing"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

const (
	protoReg  async.Proto = 1
	protoOrch async.Proto = 2
)

// regAPI abstracts Module and NaiveModule so the same harness drives both.
type regAPI interface {
	async.Module
	Register(n *async.Node, c cover.ClusterID, session int)
	Deregister(n *async.Node, c cover.ClusterID, session int)
	LocalDone(c cover.ClusterID, session int) bool
}

type evKind int

const (
	evRegistered evKind = iota + 1
	evDeregister
	evGoAhead
)

type event struct {
	kind evKind
	node graph.NodeID
	c    cover.ClusterID
	s    int
}

// world is the shared (single-threaded simulator) test state.
type world struct {
	log      []event
	expected int // total (node, cluster, session) registrations expected
	regDone  int
	floodOn  bool
	mkMod    func(cb Callbacks) regAPI
}

// client drives one node: registers in its clusters at Start, floods a
// deregistration wave once everyone registered, deregisters on the wave,
// and records Go-Aheads.
type client struct {
	w        *world
	mod      regAPI
	sessions map[int][]cover.ClusterID // session -> clusters to join
	reged    map[[2]int]bool           // (cluster, session) -> registration done
	derged   map[[2]int]bool
	flooded  bool
	outstand int
}

func (c *client) Start(n *async.Node) {
	for s, cs := range c.sessions {
		for _, cid := range cs {
			c.outstand++
			c.mod.Register(n, cid, s)
		}
	}
}

func (c *client) Recv(n *async.Node, _ graph.NodeID, m async.Msg) {
	// Deregistration flood.
	c.onFlood(n)
	_ = m
}

func (c *client) Ack(*async.Node, graph.NodeID, async.Msg) {}

func (c *client) onFlood(n *async.Node) {
	if c.flooded {
		return
	}
	c.flooded = true
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: protoOrch, Body: wire.Tag(1)})
	}
	c.deregisterReady(n)
}

func (c *client) deregisterReady(n *async.Node) {
	for key := range c.reged {
		if !c.derged[key] {
			c.derged[key] = true
			c.w.log = append(c.w.log, event{kind: evDeregister, node: n.ID(), c: cover.ClusterID(key[0]), s: key[1]})
			c.mod.Deregister(n, cover.ClusterID(key[0]), key[1])
		}
	}
}

// Registered implements Callbacks.
func (c *client) Registered(n *async.Node, cid cover.ClusterID, s int) {
	c.reged[[2]int{int(cid), s}] = true
	c.w.log = append(c.w.log, event{kind: evRegistered, node: n.ID(), c: cid, s: s})
	c.w.regDone++
	if c.flooded {
		// Flood already passed: deregister late registrations immediately.
		c.deregisterReady(n)
		return
	}
	if c.w.regDone == c.w.expected && !c.w.floodOn {
		c.w.floodOn = true
		c.onFlood(n)
	}
}

// GoAhead implements Callbacks.
func (c *client) GoAhead(n *async.Node, cid cover.ClusterID, s int) {
	c.w.log = append(c.w.log, event{kind: evGoAhead, node: n.ID(), c: cid, s: s})
}

// runScenario wires clients into a simulation and checks both guarantees.
func runScenario(t *testing.T, g *graph.Graph, cov *cover.Cover,
	sessions map[graph.NodeID]map[int][]cover.ClusterID, adv async.Adversary, naive bool) {
	t.Helper()
	w := &world{}
	if naive {
		w.mkMod = func(cb Callbacks) regAPI { return NewNaive(protoReg, cov, cb, nil) }
	} else {
		w.mkMod = func(cb Callbacks) regAPI { return New(protoReg, cov, cb, nil) }
	}
	for _, ss := range sessions {
		for _, cs := range ss {
			w.expected += len(cs)
		}
	}
	clients := make(map[graph.NodeID]*client)
	sim := async.New(g, adv, func(id graph.NodeID) async.Handler {
		cl := &client{
			w:        w,
			sessions: sessions[id],
			reged:    make(map[[2]int]bool),
			derged:   make(map[[2]int]bool),
		}
		cl.mod = w.mkMod(cl)
		clients[id] = cl
		mux := async.NewMux()
		mux.Register(protoReg, cl.mod)
		mux.Register(protoOrch, cl)
		return mux
	})
	sim.Run()

	// Liveness (Guarantee 2): every registrant got its Go-Ahead.
	for id, ss := range sessions {
		for s, cs := range ss {
			for _, cid := range cs {
				if !clients[id].mod.LocalDone(cid, s) {
					t.Fatalf("adv=%s: node %d never freed in cluster %d session %d",
						adv.Name(), id, cid, s)
				}
			}
		}
	}

	// Guarantee 1: when v receives Go-Ahead in (c,s), every u that
	// registered in (c,s) before v deregistered had already deregistered.
	type keyT struct {
		node graph.NodeID
		c    cover.ClusterID
		s    int
	}
	regAt := map[keyT]int{}
	derAt := map[keyT]int{}
	for i, e := range w.log {
		switch e.kind {
		case evRegistered:
			regAt[keyT{e.node, e.c, e.s}] = i
		case evDeregister:
			derAt[keyT{e.node, e.c, e.s}] = i
		}
	}
	for i, e := range w.log {
		if e.kind != evGoAhead {
			continue
		}
		vDereg, ok := derAt[keyT{e.node, e.c, e.s}]
		if !ok {
			t.Fatalf("adv=%s: GoAhead for %d without deregistration", adv.Name(), e.node)
		}
		for k, uReg := range regAt {
			if k.c != e.c || k.s != e.s {
				continue
			}
			if uReg < vDereg {
				uDereg, ok := derAt[k]
				if !ok || uDereg > i {
					t.Fatalf("adv=%s: guarantee 1 broken: node %d freed at %d but %d (registered %d < dereg %d) not deregistered",
						adv.Name(), e.node, i, k.node, uReg, vDereg)
				}
			}
		}
	}
}

// allMembersSessions registers every member of every cluster for session 0.
func allMembersSessions(cov *cover.Cover, n int) map[graph.NodeID]map[int][]cover.ClusterID {
	out := make(map[graph.NodeID]map[int][]cover.ClusterID)
	for v := 0; v < n; v++ {
		ids := cov.MemberOf(graph.NodeID(v))
		if len(ids) == 0 {
			continue
		}
		out[graph.NodeID(v)] = map[int][]cover.ClusterID{0: append([]cover.ClusterID(nil), ids...)}
	}
	return out
}

func TestWaveRegistrationAllAdversaries(t *testing.T) {
	g := graph.Grid(5, 6)
	cov := cover.Build(g, 2)
	sessions := allMembersSessions(cov, g.N())
	for _, adv := range async.StandardAdversaries(g.N(), 3) {
		t.Run(adv.Name(), func(t *testing.T) {
			runScenario(t, g, cov, sessions, adv, false)
		})
	}
}

func TestWaveRegistrationSeedSweep(t *testing.T) {
	g := graph.RandomConnected(40, 90, 8)
	cov := cover.Build(g, 2)
	sessions := allMembersSessions(cov, g.N())
	for seed := uint64(1); seed <= 12; seed++ {
		runScenario(t, g, cov, sessions, async.SeededRandom{Seed: seed}, false)
	}
}

func TestWaveMultiSession(t *testing.T) {
	g := graph.Path(20)
	cov := cover.Build(g, 2)
	sessions := make(map[graph.NodeID]map[int][]cover.ClusterID)
	for v := 0; v < g.N(); v++ {
		ids := cov.MemberOf(graph.NodeID(v))
		ss := make(map[int][]cover.ClusterID)
		for s := 0; s < 3; s++ {
			ss[s] = append([]cover.ClusterID(nil), ids...)
		}
		sessions[graph.NodeID(v)] = ss
	}
	for seed := uint64(1); seed <= 6; seed++ {
		runScenario(t, g, cov, sessions, async.SeededRandom{Seed: seed}, false)
	}
}

func TestWaveSubsetOfClients(t *testing.T) {
	// Only a few nodes register; relays must still carry the waves.
	g := graph.Path(24)
	cov := cover.BFSTree(graph.Path(24), 0)
	sessions := map[graph.NodeID]map[int][]cover.ClusterID{
		5:  {0: {0}},
		11: {0: {0}},
		23: {0: {0}},
	}
	for _, adv := range async.StandardAdversaries(g.N(), 5) {
		runScenario(t, g, cov, sessions, adv, false)
	}
}

// TestCrossingRegistration reproduces the subtle race the paper's fix
// addresses: an ancestor (node 2) starts registering while the descendant's
// (node 5) deregistration wave passes through it. Swept across adversaries
// and seeds to hit many interleavings.
func TestCrossingRegistration(t *testing.T) {
	g := graph.Path(6)
	cov := cover.BFSTree(graph.Path(6), 0)
	sessions := map[graph.NodeID]map[int][]cover.ClusterID{
		2: {0: {0}},
		5: {0: {0}},
	}
	advs := async.StandardAdversaries(g.N(), 1)
	for seed := uint64(1); seed <= 10; seed++ {
		advs = append(advs, async.SeededRandom{Seed: seed * 977})
	}
	for i, adv := range advs {
		t.Run(fmt.Sprintf("%s-%d", adv.Name(), i), func(t *testing.T) {
			runScenario(t, g, cov, sessions, adv, false)
		})
	}
}

func TestWaveStarOfPaths(t *testing.T) {
	// Deep congestion topology (the E7 workload) at small scale.
	g := graph.StarOfPaths(4, 6)
	cov := cover.BFSTree(g, 0)
	sessions := make(map[graph.NodeID]map[int][]cover.ClusterID)
	for v := 0; v < g.N(); v++ {
		sessions[graph.NodeID(v)] = map[int][]cover.ClusterID{0: {0}}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		runScenario(t, g, cov, sessions, async.SeededRandom{Seed: seed}, false)
	}
}

func TestNaiveRegistration(t *testing.T) {
	g := graph.StarOfPaths(3, 4)
	cov := cover.BFSTree(g, 0)
	sessions := make(map[graph.NodeID]map[int][]cover.ClusterID)
	for v := 0; v < g.N(); v++ {
		sessions[graph.NodeID(v)] = map[int][]cover.ClusterID{0: {0}}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		runScenario(t, g, cov, sessions, async.SeededRandom{Seed: seed}, true)
	}
}

func TestRootAsClient(t *testing.T) {
	g := graph.Path(8)
	cov := cover.BFSTree(graph.Path(8), 0)
	sessions := map[graph.NodeID]map[int][]cover.ClusterID{
		0: {0: {0}}, // the root itself registers
		7: {0: {0}},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		runScenario(t, g, cov, sessions, async.SeededRandom{Seed: seed}, false)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	g := graph.Path(3)
	cov := cover.BFSTree(graph.Path(3), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double register")
		}
	}()
	sim := async.New(g, async.Fixed{D: 1}, func(id graph.NodeID) async.Handler {
		mux := async.NewMux()
		var mod *Module
		cb := &nopCB{}
		mod = New(protoReg, cov, cb, nil)
		mux.Register(protoReg, mod)
		mux.Register(protoOrch, &doubleReg{mod: mod, me: id})
		return mux
	})
	sim.Run()
}

type nopCB struct{}

func (nopCB) Registered(*async.Node, cover.ClusterID, int) {}
func (nopCB) GoAhead(*async.Node, cover.ClusterID, int)    {}

type doubleReg struct {
	mod *Module
	me  graph.NodeID
}

func (d *doubleReg) Start(n *async.Node) {
	if d.me == 2 {
		d.mod.Register(n, 0, 0)
		d.mod.Register(n, 0, 0)
	}
}
func (d *doubleReg) Recv(*async.Node, graph.NodeID, async.Msg) {}
func (d *doubleReg) Ack(*async.Node, graph.NodeID, async.Msg)  {}

// TestMessageProportionality: Guarantee 2's accounting — total reg-proto
// messages are O(ops · h).
func TestMessageProportionality(t *testing.T) {
	g := graph.Path(32)
	cov := cover.BFSTree(graph.Path(32), 0)
	sessions := map[graph.NodeID]map[int][]cover.ClusterID{
		31: {0: {0}}, 15: {0: {0}}, 7: {0: {0}},
	}
	w := &world{mkMod: func(cb Callbacks) regAPI { return New(protoReg, cov, cb, nil) }}
	w.expected = 3
	sim := async.New(g, async.Fixed{D: 1}, func(id graph.NodeID) async.Handler {
		cl := &client{w: w, sessions: sessions[id], reged: make(map[[2]int]bool), derged: make(map[[2]int]bool)}
		cl.mod = w.mkMod(cl)
		mux := async.NewMux()
		mux.Register(protoReg, cl.mod)
		mux.Register(protoOrch, cl)
		return mux
	})
	res := sim.Run()
	// 3 clients, height 31: registration+deregistration+goahead waves are
	// each <= height hops per client, so <= ~6*31 + slack.
	if res.PerProto[protoReg] > 8*31 {
		t.Fatalf("registration proto used %d messages, want O(ops*h)=~%d", res.PerProto[protoReg], 6*31)
	}
}
