package decomp

import (
	"testing"

	"repro/internal/graph"
)

// Construction microbenchmarks for the cluster-tree substrate. Allocation
// counts are the first-class metric: the builder's hot path is dominated by
// per-step scratch and per-tree bookkeeping, so allocs/op tracks the map
// churn the dense representation is meant to eliminate.

func benchBuild(b *testing.B, g *graph.Graph, k int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, k)
	}
}

func BenchmarkBuildGrid10x10K3(b *testing.B) { benchBuild(b, graph.Grid(10, 10), 3) }
func BenchmarkBuildCycle128K5(b *testing.B)  { benchBuild(b, graph.Cycle(128), 5) }
func BenchmarkBuildER128M400K3(b *testing.B) { benchBuild(b, graph.RandomConnected(128, 400, 21), 3) }
func BenchmarkBuildGrid16x16K1(b *testing.B) { benchBuild(b, graph.Grid(16, 16), 1) }
