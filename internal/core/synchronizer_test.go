package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/pulse"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// --- synchronous test algorithms -----------------------------------------

// Wire kinds of the test algorithms (each algorithm owns its namespace).
const (
	tkJoin  wire.Kind = 100 // bfsAlgo / msBFSAlgo join
	tkToken wire.Kind = 101 // echoAlgo token, chainAlgo hop
	tkCount wire.Kind = 102 // echoAlgo subtree count (A = size)
	tkPing  wire.Kind = 103 // pingAlgo counter (A = k)
)

// bfsAlgo is the event-driven synchronous BFS: the source floods "join";
// each node adopts the pulse of the first join as its distance.
type bfsAlgo struct {
	src  graph.NodeID
	dist int
}

func (h *bfsAlgo) Init(n syncrun.API) {
	h.dist = -1
	if n.ID() == h.src {
		h.dist = 0
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(tkJoin))
		}
	}
}

func (h *bfsAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	if h.dist >= 0 || len(recvd) == 0 {
		return
	}
	h.dist = p
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(tkJoin))
	}
}

// echoAlgo floods a token out and converges acks back to the initiator,
// which outputs the total node count. Exercises down-and-up traffic and
// send-triggered pulses.
type echoAlgo struct {
	root    graph.NodeID
	par     graph.NodeID
	joined  bool
	pending int
	count   int
}

func (h *echoAlgo) Init(n syncrun.API) {
	h.par = -1
	if n.ID() == h.root {
		h.joined = true
		h.count = 1
		h.pending = n.Degree()
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, wire.Tag(tkToken))
		}
	}
}

// Pulse implements the classic echo with crossing tokens: a token received
// while already joined answers the token we sent over that edge, so no
// explicit declines are needed and each edge carries at most one message
// per direction per pulse (CONGEST-safe).
func (h *echoAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	for _, in := range recvd {
		switch in.Body.Kind {
		case tkToken:
			if h.joined {
				h.pending-- // crossing token answers ours
				continue
			}
			h.joined = true
			h.par = in.From
			h.count = 1
			for _, nb := range n.Neighbors() {
				if nb.Node != h.par {
					n.Send(nb.Node, wire.Tag(tkToken))
					h.pending++
				}
			}
		case tkCount:
			h.pending--
			h.count += int(in.Body.A)
		}
	}
	if h.joined && h.pending == 0 && !n.HasOutput() {
		if h.par >= 0 {
			n.Send(h.par, wire.Body{Kind: tkCount, A: int64(h.count)})
		}
		n.Output(h.count)
	}
}

// chainAlgo walks a token node 0 -> 1 -> ... -> n-1 along a path, with each
// hop outputting its visit pulse. Long dependency chains, few messages:
// the worst case for α's message overhead and a good Lemma 5.1 stressor.
type chainAlgo struct{}

func (h *chainAlgo) Init(n syncrun.API) {
	if n.ID() == 0 {
		n.Output(0)
		n.Send(1, wire.Tag(tkToken))
	}
}

func (h *chainAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	if len(recvd) == 0 || n.HasOutput() {
		return
	}
	n.Output(p)
	next := n.ID() + 1
	for _, nb := range n.Neighbors() {
		if nb.Node == next {
			n.Send(next, wire.Tag(tkToken))
		}
	}
}

// --- equivalence harness ---------------------------------------------------

// runBoth executes the algorithm in the lockstep runner and under the
// synchronizer and requires identical outputs.
func runBoth(t *testing.T, g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) (syncrun.Result, async.Result) {
	t.Helper()
	syncRes := syncrun.New(g, mk).Run()
	asyncRes := Synchronize(Config{Graph: g, Bound: bound, Adversary: adv}, mk)
	if len(syncRes.Outputs) != len(asyncRes.Outputs) {
		t.Fatalf("output counts differ: sync %d, async %d", len(syncRes.Outputs), len(asyncRes.Outputs))
	}
	for v, want := range syncRes.Outputs {
		if got := asyncRes.Outputs[v]; !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: async output %v, sync output %v", v, got, want)
		}
	}
	return syncRes, asyncRes
}

func TestSynchronizedBFSMatchesSyncOutputs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path12":  graph.Path(12),
		"cycle9":  graph.Cycle(9),
		"grid4x4": graph.Grid(4, 4),
		"star10":  specGraph("star:10"),
		"er20":    graph.RandomConnected(20, 40, 7),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			bound := g.Diameter() + 2
			mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
			syncRes, _ := runBoth(t, g, bound, async.SeededRandom{Seed: 3}, mk)
			want := g.BFS(0)
			for v := 0; v < g.N(); v++ {
				if syncRes.Outputs[graph.NodeID(v)] != want[v] {
					t.Fatalf("node %d: BFS output %v, want %d", v, syncRes.Outputs[graph.NodeID(v)], want[v])
				}
			}
		})
	}
}

func TestSynchronizedBFSAllAdversaries(t *testing.T) {
	g := graph.Grid(4, 5)
	bound := g.Diameter() + 2
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	for _, adv := range async.StandardAdversaries(g.N(), 11) {
		t.Run(adv.Name(), func(t *testing.T) {
			runBoth(t, g, bound, adv, mk)
		})
	}
}

func TestSynchronizedBFSSeedSweep(t *testing.T) {
	g := graph.RandomConnected(24, 50, 19)
	bound := g.Diameter() + 2
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 5} }
	for seed := uint64(1); seed <= 15; seed++ {
		runBoth(t, g, bound, async.SeededRandom{Seed: seed}, mk)
	}
}

func TestSynchronizedEcho(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path10", graph.Path(10)},
		{"grid3x4", graph.Grid(3, 4)},
		{"tree15", specGraph("tree:15")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Echo takes up to ~2D+2 pulses.
			bound := 2*tc.g.Diameter() + 4
			mk := func(graph.NodeID) syncrun.Handler { return &echoAlgo{root: 0} }
			syncRes, _ := runBoth(t, tc.g, bound, async.SeededRandom{Seed: 2}, mk)
			if syncRes.Outputs[0] != tc.g.N() {
				t.Fatalf("echo root counted %v, want %d", syncRes.Outputs[0], tc.g.N())
			}
		})
	}
}

func TestSynchronizedChain(t *testing.T) {
	g := graph.Path(16)
	mk := func(graph.NodeID) syncrun.Handler { return &chainAlgo{} }
	for _, adv := range async.StandardAdversaries(g.N(), 4) {
		t.Run(adv.Name(), func(t *testing.T) {
			syncRes, _ := runBoth(t, g, 17, adv, mk)
			for v := 0; v < g.N(); v++ {
				if syncRes.Outputs[graph.NodeID(v)] != v {
					t.Fatalf("chain node %d visited at %v", v, syncRes.Outputs[graph.NodeID(v)])
				}
			}
		})
	}
}

func TestMultiOriginator(t *testing.T) {
	// Several originators start BFS floods at once (multi-source BFS):
	// each node outputs its distance to the closest source.
	g := graph.Grid(5, 5)
	sources := []graph.NodeID{0, 24, 12}
	mk := func(id graph.NodeID) syncrun.Handler { return &msBFSAlgo{sources: sources} }
	bound := g.Diameter() + 2
	syncRes, _ := runBoth(t, g, bound, async.SeededRandom{Seed: 8}, mk)
	dist, _ := g.MultiBFS(sources)
	for v := 0; v < g.N(); v++ {
		if syncRes.Outputs[graph.NodeID(v)] != dist[v] {
			t.Fatalf("node %d: multi-source output %v, want %d", v, syncRes.Outputs[graph.NodeID(v)], dist[v])
		}
	}
}

type msBFSAlgo struct {
	sources []graph.NodeID
	dist    int
}

func (h *msBFSAlgo) Init(n syncrun.API) {
	h.dist = -1
	for _, s := range h.sources {
		if n.ID() == s {
			h.dist = 0
			n.Output(0)
			for _, nb := range n.Neighbors() {
				n.Send(nb.Node, wire.Tag(tkJoin))
			}
		}
	}
}

func (h *msBFSAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	if h.dist >= 0 || len(recvd) == 0 {
		return
	}
	h.dist = p
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Tag(tkJoin))
	}
}

func TestScheduleTables(t *testing.T) {
	s := NewSchedule(64)
	// Every pulse 1..64 is either a barrier pulse or has a registrant
	// entry at (prev2(p), prev(p)).
	for p := 1; p <= 64; p++ {
		if s.IsBarrier(p) {
			continue
		}
		found := false
		for _, rp := range s.RegisterSessions(pulse.Prev2(p), pulse.Prev(p)) {
			if rp == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("pulse %d has neither barrier nor registrant entry", p)
		}
	}
	// Tracked sets are consistent with Lemma 4.14's O(log) size.
	for pi := 0; pi <= 64; pi++ {
		if len(s.Tracked(pi)) > 8*8 {
			t.Fatalf("Tracked(%d) has %d entries", pi, len(s.Tracked(pi)))
		}
		if !sort.IntsAreSorted(s.Tracked(pi)) {
			t.Fatalf("Tracked(%d) not sorted", pi)
		}
	}
}

func TestSynchronizerDeterminism(t *testing.T) {
	g := graph.Grid(4, 4)
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	cfg := Config{Graph: g, Bound: g.Diameter() + 2, Adversary: async.SeededRandom{Seed: 5}}
	a := Synchronize(cfg, mk)
	b := Synchronize(cfg, mk)
	if a.Time != b.Time || a.Msgs != b.Msgs {
		t.Fatalf("nondeterministic synchronizer: %+v vs %+v", a, b)
	}
}

func TestBoundTooSmallPanics(t *testing.T) {
	g := graph.Path(8)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for undersized bound")
		} else if _, ok := r.(boundTooSmall); !ok {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Synchronize(Config{Graph: g, Bound: 2, Adversary: async.Fixed{D: 1}},
		func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} })
}

func TestTimeToOutputReported(t *testing.T) {
	g := graph.Path(10)
	res := Synchronize(Config{Graph: g, Bound: 12, Adversary: async.Fixed{D: 1}},
		func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} })
	if res.Time <= 0 || res.Time > res.QuiesceTime {
		t.Fatalf("implausible times: %+v", res)
	}
	fmt.Printf("path10 BFS: time=%.1f quiesce=%.1f msgs=%d\n", res.Time, res.QuiesceTime, res.Msgs)
}
