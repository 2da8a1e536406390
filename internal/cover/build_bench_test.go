package cover

import (
	"testing"

	"repro/internal/graph"
)

// Cover-construction microbenchmarks: cover.Build clones and expands every
// decomposition tree, so it multiplies any per-tree overhead of the
// underlying representation.

func benchCoverBuild(b *testing.B, g *graph.Graph, d int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, d)
	}
}

func BenchmarkCoverGrid10x10D2(b *testing.B) { benchCoverBuild(b, graph.Grid(10, 10), 2) }
func BenchmarkCoverER96D2(b *testing.B)      { benchCoverBuild(b, graph.RandomConnected(96, 250, 33), 2) }
func BenchmarkCoverPath64D4(b *testing.B)    { benchCoverBuild(b, graph.Path(64), 4) }
