package dsync

import (
	"io"
	"os"
	"testing"

	"repro/internal/bench"
)

// BenchmarkExperiments regenerates every experiment table in DESIGN.md's
// index, one sub-benchmark per registered id (-bench Experiments/E7 picks
// one). The table prints once (to stdout) regardless of b.N; iterations
// beyond the first re-run the experiment silently so -benchtime still
// measures it.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range bench.IDs() {
		b.Run(id, func(b *testing.B) {
			if !bench.ByName(os.Stdout, id) {
				b.Fatalf("experiment %s failed", id)
			}
			for i := 1; i < b.N; i++ {
				bench.ByName(io.Discard, id)
			}
		})
	}
}
