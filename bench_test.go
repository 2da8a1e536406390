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
	for _, e := range bench.List() {
		b.Run(e.ID, func(b *testing.B) {
			if err := bench.Run(os.Stdout, []string{e.ID}, bench.Options{}); err != nil {
				b.Fatalf("experiment %s: %v", e.ID, err)
			}
			for i := 1; i < b.N; i++ {
				bench.Run(io.Discard, []string{e.ID}, bench.Options{})
			}
		})
	}
}
