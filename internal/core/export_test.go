package core

// The α, β and γ handler constructors, for the external state-plane tests,
// which need engines rather than finished runs.
var (
	AlphaHandlers = alphaHandlers
	BetaHandlers  = betaHandlers
	GammaHandlers = gammaHandlers
)
