package abfs

import (
	"testing"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkFullBFS measures the complete doubling BFS end to end: five-ish
// thresholded iterations per op, all on one engine rearmed with Sim.Reset,
// intermediate iterations in dense-output mode. The interesting trend is
// allocs/op and bytes/op versus the rebuild-everything-per-iteration
// baseline this replaced.
func BenchmarkFullBFS(b *testing.B) {
	g := graph.Grid(8, 12)
	core.BuildLayeredFor(g, 100) // warm the cover cache like a sweep does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := FullMode(g, []graph.NodeID{0}, async.SeededRandom{Seed: 5}, async.ModeAuto)
		if len(res.Outputs) != g.N() {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkFullBFSModes runs the same doubling BFS once per engine
// execution mode on a larger grid. Every module of the stack has a state
// codec, so the spec rows speculate, copying each per-round clone through
// it.
func BenchmarkFullBFSModes(b *testing.B) {
	g := graph.Grid(16, 24)
	core.BuildLayeredFor(g, 100)
	for _, mode := range []async.ExecutionMode{
		async.ModeSingle, async.ModeMulti, async.ModeSpec,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := FullMode(g, []graph.NodeID{0}, async.SeededRandom{Seed: 5}, mode)
				if len(res.Outputs) != g.N() {
					b.Fatal("incomplete")
				}
			}
		})
	}
}
