package core

import (
	"testing"
	"testing/quick"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// Tiny-graph edge cases: the synchronizer must handle K2, stars, and
// graphs where every node is an originator.
func TestSynchronizerK2(t *testing.T) {
	g := graph.Path(2)
	mk := func(graph.NodeID) syncrun.Handler { return &pingAlgo{rounds: 6} }
	syncRes := syncrun.New(g, mk).Run()
	res := Synchronize(Config{Graph: g, Bound: 8, Adversary: async.SeededRandom{Seed: 1}}, mk)
	for v, want := range syncRes.Outputs {
		if res.Outputs[v] != want {
			t.Fatalf("node %d: %v vs %v", v, res.Outputs[v], want)
		}
	}
}

func TestSynchronizerAllOriginators(t *testing.T) {
	// Every node floods at pulse 0 (all-originator barrier stress).
	g := graph.Grid(3, 4)
	mk := func(id graph.NodeID) syncrun.Handler { return &allInit{} }
	syncRes := syncrun.New(g, mk).Run()
	for _, adv := range async.StandardAdversaries(g.N(), 71) {
		res := Synchronize(Config{Graph: g, Bound: 4, Adversary: adv}, mk)
		if len(res.Outputs) != len(syncRes.Outputs) {
			t.Fatalf("%s: outputs %d vs %d", adv.Name(), len(res.Outputs), len(syncRes.Outputs))
		}
		for v, want := range syncRes.Outputs {
			if res.Outputs[v] != want {
				t.Fatalf("%s: node %d got %v want %v", adv.Name(), v, res.Outputs[v], want)
			}
		}
	}
}

// allInit: every node announces its ID to all neighbors at pulse 0 and
// outputs the sum of IDs heard at pulse 1.
type allInit struct{ sum int }

func (h *allInit) Init(n syncrun.API) {
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, wire.Body{Kind: tkPing, A: int64(n.ID())})
	}
}

func (h *allInit) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	if p != 1 {
		return
	}
	for _, in := range recvd {
		h.sum += int(in.Body.A)
	}
	n.Output(h.sum)
}

func TestSynchronizerStar(t *testing.T) {
	g := specGraph("star:9")
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	syncRes := syncrun.New(g, mk).Run()
	res := Synchronize(Config{Graph: g, Bound: 4, Adversary: async.Flaky{Seed: 3}}, mk)
	for v, want := range syncRes.Outputs {
		if res.Outputs[v] != want {
			t.Fatalf("node %d: %v vs %v", v, res.Outputs[v], want)
		}
	}
}

// Property: on random graphs with random seeds, the synchronized
// multi-source BFS always matches the lockstep run.
func TestSynchronizerRandomSweepProperty(t *testing.T) {
	f := func(rawSeed uint16, rawN uint8) bool {
		n := 8 + int(rawN)%16
		g := graph.RandomConnected(n, n+n/2, uint64(rawSeed)+1)
		sources := []graph.NodeID{0, graph.NodeID(n / 2)}
		mk := func(graph.NodeID) syncrun.Handler { return &msBFSAlgo{sources: sources} }
		syncRes := syncrun.New(g, mk).Run()
		res := Synchronize(Config{Graph: g, Bound: syncRes.Rounds + 2,
			Adversary: async.SeededRandom{Seed: uint64(rawSeed) * 13}}, mk)
		if len(res.Outputs) != len(syncRes.Outputs) {
			return false
		}
		for v, want := range syncRes.Outputs {
			if res.Outputs[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// A silent algorithm (no originators) must terminate with no messages.
func TestSynchronizerSilentAlgorithm(t *testing.T) {
	g := graph.Path(6)
	mk := func(graph.NodeID) syncrun.Handler { return &silentAlgo{} }
	res := Synchronize(Config{Graph: g, Bound: 2, Adversary: async.Fixed{D: 1}}, mk)
	// Barrier traffic only; no algorithm messages.
	if res.PerProto[protoAlgo] != 0 {
		t.Fatalf("silent algorithm sent %d algo messages", res.PerProto[protoAlgo])
	}
	if res.Outputs[3] != true {
		t.Fatalf("output %v", res.Outputs[3])
	}
}

type silentAlgo struct{}

func (h *silentAlgo) Init(n syncrun.API)                         { n.Output(true) }
func (h *silentAlgo) Pulse(syncrun.API, int, []syncrun.Incoming) {}

// specGraph builds a test topology from a graph.FromSpec string.
func specGraph(spec string) *graph.Graph {
	g, err := graph.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return g
}
