package core

import (
	"repro/internal/cover"
	"repro/internal/graph"
)

// The α, β and γ handler constructors, for the external state-plane tests,
// which need engines rather than finished runs.
var (
	AlphaHandlers = alphaHandlers
	BetaHandlers  = betaHandlers
	GammaHandlers = gammaHandlers
)

// FirstCoverLevel is the lowest cover level a synchronized run reads.
const FirstCoverLevel = firstCoverLevel

// CachedLevel returns level j of g if the level cache has built it, and nil
// otherwise; it builds nothing.
func CachedLevel(g *graph.Graph, j int) *cover.Cover {
	levelCache.Lock()
	defer levelCache.Unlock()
	if levels := levelCache.graphs[g]; j < len(levels) {
		return levels[j].cov
	}
	return nil
}
