package core

import (
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// runAllSynchronizers executes the same algorithm under α, β, γ, and the
// main synchronizer, and checks every one reproduces the lockstep outputs.
func runAllSynchronizers(t *testing.T, g *graph.Graph, bound int, adv async.Adversary,
	mk func(id graph.NodeID) syncrun.Handler) map[string]async.Result {
	t.Helper()
	want := syncrun.New(g, mk).Run()
	results := map[string]async.Result{
		"alpha": SynchronizeAlpha(g, bound, adv, mk),
		"beta":  SynchronizeBeta(g, bound, adv, mk),
		"gamma": SynchronizeGamma(g, bound, adv, mk),
		"main":  Synchronize(Config{Graph: g, Bound: bound, Adversary: adv}, mk),
	}
	for name, res := range results {
		if len(res.Outputs) != len(want.Outputs) {
			t.Fatalf("%s: %d outputs, want %d", name, len(res.Outputs), len(want.Outputs))
		}
		for v, w := range want.Outputs {
			if res.Outputs[v] != w {
				t.Fatalf("%s: node %d output %v, want %v", name, v, res.Outputs[v], w)
			}
		}
	}
	return results
}

func TestAllSynchronizersBFS(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path14", graph.Path(14)},
		{"grid4x5", graph.Grid(4, 5)},
		{"er25", graph.RandomConnected(25, 60, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound := tc.g.Diameter() + 2
			mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
			runAllSynchronizers(t, tc.g, bound, async.SeededRandom{Seed: 6}, mk)
		})
	}
}

func TestAllSynchronizersEcho(t *testing.T) {
	g := graph.Grid(3, 5)
	bound := 2*g.Diameter() + 4
	mk := func(graph.NodeID) syncrun.Handler { return &echoAlgo{root: 0} }
	runAllSynchronizers(t, g, bound, async.SeededRandom{Seed: 9}, mk)
}

func TestAllSynchronizersAdversaries(t *testing.T) {
	g := graph.Cycle(12)
	bound := g.Diameter() + 2
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	for _, adv := range async.StandardAdversaries(g.N(), 21) {
		t.Run(adv.Name(), func(t *testing.T) {
			runAllSynchronizers(t, g, bound, adv, mk)
		})
	}
}

// pingAlgo bounces a token between nodes 0 and 1 for `rounds` pulses:
// T(A) = M(A) = rounds, independent of m. The worst case for α's
// M(A) + Θ(T·m) message complexity (Appendix A).
type pingAlgo struct{ rounds int }

func (h *pingAlgo) Init(n syncrun.API) {
	if n.ID() == 0 {
		n.Send(1, wire.Body{Kind: tkPing, A: 0})
	}
}

func (h *pingAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	if len(recvd) == 0 {
		return
	}
	k := int(recvd[0].Body.A)
	if k+1 >= h.rounds {
		n.Output(k)
		return
	}
	n.Send(recvd[0].From, wire.Body{Kind: tkPing, A: int64(k + 1)})
}

// The α message blow-up (E8's claim): on a high-T(A), low-M(A) algorithm
// over a low-diameter graph, α pays Θ(T·m) safety messages while the main
// synchronizer pays only polylog per pulse actually used. α keeps its O(1)
// time overhead — the tradeoff the paper's Table-free Appendix A describes.
func TestAlphaBlowupShape(t *testing.T) {
	g := graph.RandomConnected(128, 6*128, 5)
	rounds := 128
	mk := func(graph.NodeID) syncrun.Handler { return &pingAlgo{rounds: rounds} }
	alpha := SynchronizeAlpha(g, rounds+1, async.Fixed{D: 1}, mk)
	main := Synchronize(Config{Graph: g, Bound: rounds + 1, Adversary: async.Fixed{D: 1}}, mk)
	if alpha.Msgs < uint64(rounds)*uint64(g.M())/2 {
		t.Fatalf("alpha used %d msgs; expected Θ(T·m) ≈ %d", alpha.Msgs, rounds*g.M())
	}
	t.Logf("ping on ER(128): alpha=%d main=%d (ratio %.1fx)", alpha.Msgs, main.Msgs,
		float64(alpha.Msgs)/float64(main.Msgs))
	if main.Msgs*2 >= alpha.Msgs {
		t.Fatalf("main synchronizer (%d msgs) should beat alpha (%d) by >2x here",
			main.Msgs, alpha.Msgs)
	}
	if alpha.Time >= main.Time {
		t.Fatalf("alpha time %f should beat main %f (O(1) vs polylog per pulse)",
			alpha.Time, main.Time)
	}
}

// β pays Θ(D) time per pulse; the main synchronizer must scale better on
// long paths for algorithms with short dependency chains per pulse.
func TestBetaTimeShape(t *testing.T) {
	g := graph.Path(40)
	bound := g.Diameter() + 2
	mk := func(graph.NodeID) syncrun.Handler { return &bfsAlgo{src: 0} }
	beta := SynchronizeBeta(g, bound, async.Fixed{D: 1}, mk)
	// T(A)=39 pulses, each costing ~2D time: ~2*39*39.
	if beta.Time < float64(g.Diameter())*float64(g.Diameter()) {
		t.Fatalf("beta time %f suspiciously small; per-pulse Θ(D) missing", beta.Time)
	}
}

func TestGammaPartitionShape(t *testing.T) {
	g := graph.Grid(6, 6)
	part := newGammaPartition(g)
	if part.ClusterCount() < 1 {
		t.Fatal("no clusters")
	}
	if part.DesignatedEdgeCount() < part.ClusterCount()-1 {
		t.Fatalf("designated edges %d cannot connect %d clusters",
			part.DesignatedEdgeCount(), part.ClusterCount())
	}
}
