package bench

import (
	"repro/internal/abfs"
	"repro/internal/apps"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

func bfsMk(sources []graph.NodeID) func(graph.NodeID) syncrun.Handler {
	return func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: sources} }
}

// namedGraph defers topology construction into the job so parallel trials
// never share a builder.
type namedGraph struct {
	name string
	mk   func() *graph.Graph
}

// e1SynchronizerOverheads compares α, β, γ, and the main synchronizer on
// the same synchronous BFS: time overhead T(A')/T(A) and message overhead
// M(A')/M(A) per Appendix A and Theorem 1.1. Expected shape: α wins time
// and loses messages as T·m grows; β pays Θ(D) time per pulse; the main
// synchronizer keeps both overheads polylogarithmic.
func e1SynchronizerOverheads(c *expCtx) {
	t := c.table("overheads = async/sync; α time ≈ O(1)/pulse, β time ≈ Θ(D)/pulse, main = polylog")
	t.head("graph", "n", "m", "D", "T(A)", "M(A)", "sync", "time-ovh", "msg-ovh")
	graphs := []namedGraph{
		{"cycle64", func() *graph.Graph { return graph.Cycle(64) }},
		{"grid8x8", func() *graph.Graph { return graph.Grid(8, 8) }},
		{"er96", func() *graph.Graph { return graph.RandomConnected(96, 300, 7) }},
	}
	t.emit(c.jobs(len(graphs), func(i int) []row {
		tc := graphs[i]
		g := tc.mk()
		mk := bfsMk([]graph.NodeID{0})
		sres := c.runSync(g, mk)
		bound := sres.Rounds + 2
		adv := c.adv(3)
		runs := []struct {
			name string
			res  async.Result
		}{
			{"alpha", core.SynchronizeAlpha(g, bound, adv, mk)},
			{"beta", core.SynchronizeBeta(g, bound, adv, mk)},
			{"gamma", core.SynchronizeGamma(g, bound, adv, mk)},
			{"main", core.Synchronize(c.coreCfg(g, bound, adv), mk)},
		}
		rows := make([]row, 0, len(runs))
		for _, r := range runs {
			timeOvh := r.res.Time / float64(sres.T)
			msgOvh := float64(r.res.Msgs) / float64(sres.M)
			rows = append(rows, row{
				cols: []any{tc.name, g.N(), g.M(), g.Diameter(), sres.T, sres.M, r.name, timeOvh, msgOvh},
				rec: record{"graph": tc.name, "n": g.N(), "m": g.M(), "diameter": g.Diameter(),
					"syncT": sres.T, "syncM": sres.M, "synchronizer": r.name,
					"time": r.res.Time, "msgs": r.res.Msgs,
					"timeOverhead": timeOvh, "msgOverhead": msgOvh},
			})
		}
		return rows
	}))
}

// e2BFSTimeVsD measures the complete asynchronous BFS (Theorem 4.23):
// time should scale near-linearly in D (polylog factors on top).
func e2BFSTimeVsD(c *expCtx) {
	t := c.table("time/D should stay within polylog factors as D doubles")
	t.head("graph", "n", "m", "D", "iters", "time", "time/D", "msgs")
	cases := []namedGraph{
		{"cycle32", func() *graph.Graph { return graph.Cycle(32) }},
		{"cycle64", func() *graph.Graph { return graph.Cycle(64) }},
		{"cycle128", func() *graph.Graph { return graph.Cycle(128) }},
		{"grid6x6", func() *graph.Graph { return graph.Grid(6, 6) }},
		{"grid8x12", func() *graph.Graph { return graph.Grid(8, 12) }},
	}
	t.emit(c.jobs(len(cases), func(i int) []row {
		tc := cases[i]
		g := tc.mk()
		res := abfs.FullMode(g, []graph.NodeID{0}, c.adv(5), c.amode)
		d := g.Diameter()
		perD := res.Time / float64(d)
		return []row{{
			cols: []any{tc.name, g.N(), g.M(), d, res.Iterations, res.Time, perD, res.Msgs},
			rec: record{"graph": tc.name, "n": g.N(), "m": g.M(), "diameter": d,
				"iterations": res.Iterations, "time": res.Time, "timePerD": perD, "msgs": res.Msgs},
		}}
	}))
}

// e3BFSMessagesVsM fixes n and sweeps m: messages should scale near-
// linearly in m (Theorem 4.23's Õ(m)).
func e3BFSMessagesVsM(c *expCtx) {
	t := c.table("msgs/m should stay within polylog factors as m grows")
	t.head("n", "m", "D", "time", "msgs", "msgs/m")
	const n = 96
	ms := []int{150, 300, 600, 1200}
	t.emit(c.jobs(len(ms), func(i int) []row {
		g := graph.RandomConnected(n, ms[i], 11)
		res := abfs.FullMode(g, []graph.NodeID{0}, c.adv(5), c.amode)
		perM := float64(res.Msgs) / float64(g.M())
		return []row{{
			cols: []any{n, g.M(), g.Diameter(), res.Time, res.Msgs, perM},
			rec: record{"n": n, "m": g.M(), "diameter": g.Diameter(),
				"time": res.Time, "msgs": res.Msgs, "msgsPerM": perM},
		}}
	}))
}

// e4MultiSourceD1 shows Theorem 4.24: multi-source BFS terminates in time
// governed by D1 (max distance to the closest source), not the diameter.
func e4MultiSourceD1(c *expCtx) {
	t := c.table("with more sources D1 shrinks and so should the time, at fixed D")
	t.head("sources", "D", "D1", "iters", "time", "time/D1", "msgs")
	sets := [][]graph.NodeID{
		{0},
		{0, 99},
		{0, 9, 90, 99},
		{0, 9, 90, 99, 44, 45, 54, 55},
	}
	t.emit(c.jobs(len(sets), func(i int) []row {
		sources := sets[i]
		g := graph.Grid(10, 10)
		d := g.Diameter()
		d1 := g.BallRadius(sources)
		res := abfs.FullMode(g, sources, c.adv(9), c.amode)
		perD1 := res.Time / float64(d1)
		return []row{{
			cols: []any{len(sources), d, d1, res.Iterations, res.Time, perD1, res.Msgs},
			rec: record{"sources": len(sources), "diameter": d, "d1": d1,
				"iterations": res.Iterations, "time": res.Time, "timePerD1": perD1, "msgs": res.Msgs},
		}}
	}))
}

// e5LeaderElection measures Corollary 1.3: deterministic asynchronous
// leader election in Õ(D) time and Õ(m) messages.
func e5LeaderElection(c *expCtx) {
	t := c.table("time/D and msgs/m should stay within polylog factors")
	t.head("graph", "n", "m", "D", "T(A)", "M(A)", "time", "time/D", "msgs", "msgs/m")
	cases := []namedGraph{
		{"cycle32", func() *graph.Graph { return graph.Cycle(32) }},
		{"cycle64", func() *graph.Graph { return graph.Cycle(64) }},
		{"grid6x6", func() *graph.Graph { return graph.Grid(6, 6) }},
		{"grid8x8", func() *graph.Graph { return graph.Grid(8, 8) }},
		{"er64", func() *graph.Graph { return graph.RandomConnected(64, 200, 13) }},
	}
	t.emit(c.jobs(len(cases), func(i int) []row {
		tc := cases[i]
		g := tc.mk()
		d := g.Diameter()
		layered := cover.BuildLayered(g, d)
		spans := apps.LeaderSpansAll(g, layered)
		mk := func(graph.NodeID) syncrun.Handler {
			return &apps.Leader{Covers: layered, SpansAll: spans}
		}
		sres := c.runSync(g, mk)
		res := core.Synchronize(c.coreCfg(g, sres.Rounds+2, c.adv(17)), mk)
		perD := res.Time / float64(d)
		perM := float64(res.Msgs) / float64(g.M())
		return []row{{
			cols: []any{tc.name, g.N(), g.M(), d, sres.T, sres.M, res.Time, perD, res.Msgs, perM},
			rec: record{"graph": tc.name, "n": g.N(), "m": g.M(), "diameter": d,
				"syncT": sres.T, "syncM": sres.M, "time": res.Time, "timePerD": perD,
				"msgs": res.Msgs, "msgsPerM": perM},
		}}
	}))
}

// e6MST measures Corollary 1.4 (with the documented Borůvka substitution):
// asynchronous deterministic MST with Õ(m) messages.
func e6MST(c *expCtx) {
	t := c.table("msgs/m should stay within polylog factors; MST verified against Kruskal")
	t.head("graph", "n", "m", "T(A)", "M(A)", "time", "msgs", "msgs/m", "correct")
	cases := []namedGraph{
		{"er24", func() *graph.Graph { return graph.WithRandomWeights(graph.RandomConnected(24, 70, 3), 5) }},
		{"er48", func() *graph.Graph { return graph.WithRandomWeights(graph.RandomConnected(48, 150, 3), 5) }},
		{"grid6x6", func() *graph.Graph { return graph.WithRandomWeights(graph.Grid(6, 6), 5) }},
	}
	t.emit(c.jobs(len(cases), func(i int) []row {
		tc := cases[i]
		g := tc.mk()
		tree := cover.BFSTree(g, 0)
		weights := make([]int64, g.M())
		for j := range weights {
			weights[j] = g.Weight(graph.EdgeID(j))
		}
		mk := func(graph.NodeID) syncrun.Handler {
			return &apps.MST{Barrier: tree, Weights: weights}
		}
		sres := c.runSync(g, mk)
		res := core.Synchronize(c.coreCfg(g, sres.Rounds+2, c.adv(19)), mk)
		perM := float64(res.Msgs) / float64(g.M())
		correct := mstCorrect(g, res.Outputs)
		return []row{{
			cols: []any{tc.name, g.N(), g.M(), sres.T, sres.M, res.Time, res.Msgs, perM, correct},
			rec: record{"graph": tc.name, "n": g.N(), "m": g.M(), "syncT": sres.T, "syncM": sres.M,
				"time": res.Time, "msgs": res.Msgs, "msgsPerM": perM, "correct": correct},
		}}
	}))
}

func mstCorrect(g *graph.Graph, outputs map[graph.NodeID]any) bool {
	want := make(map[[2]graph.NodeID]bool)
	for _, id := range g.KruskalMST() {
		want[[2]graph.NodeID{g.EdgeU(id), g.EdgeV(id)}] = true
	}
	got := make(map[[2]graph.NodeID]bool)
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[graph.NodeID(v)]
		if !ok {
			return false
		}
		res, ok := out.(apps.MSTResult)
		if !ok {
			return false
		}
		if u := graph.NodeID(v); res.Parent >= 0 {
			got[[2]graph.NodeID{min(u, res.Parent), max(u, res.Parent)}] = true
		}
	}
	if len(got) != len(want) {
		return false
	}
	for e := range want {
		if !got[e] {
			return false
		}
	}
	return true
}
