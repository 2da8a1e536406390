// Package core implements the paper's main contribution: the deterministic
// polylogarithmic-overhead synchronizer for event-driven synchronous
// algorithms (§5), together with Awerbuch's α, β and γ synchronizers
// (Appendix A) as baselines.
//
// The synchronizer materializes each synchronous send-step of a node v at
// pulse p as a virtual node (v,p) in an execution forest (§5.2). Pulse-p
// sends are gated on Go-Ahead(p), which is produced by the registration
// machinery of §3.2 running on sparse 2^(ℓ(p)+5)-covers, driven by
// p-safety convergecasts on the execution forest (§4.1.2 adapted per
// §5.3.1). Pulses p with prev(prev(p)) = 0 — the originator pulses — use
// the convergecast barriers of §4.2 instead.
package core

import (
	"fmt"
	"sync"

	"repro/internal/async"
	"repro/internal/pulse"
)

// Schedule precomputes every pulse-derived table the synchronizer needs for
// a given pulse bound B (the algorithm may send at pulses 0..B-1; virtual
// nodes exist for pulses 0..B). One Schedule is shared read-only by every
// node of a run; only NewNodeHandler's dispatch table is written once.
type Schedule struct {
	// B is the pulse bound.
	B int
	// tracked[π] lists pulses q with prev2(q) <= π < q <= B: the safety
	// convergecasts a virtual node of pulse π participates in (beyond its
	// own creation report for q = π).
	tracked [][]int
	// regAt[π<<32|q] lists sessions p (1 <= p <= B, prev(p) = q,
	// prev2(p) = π) that a virtual node of pulse π must register for when
	// its q-status resolves ready. Empty for originator pulses (barriers).
	regAt map[int64][]int
	// barrier lists pulses p in [1, B] with prev2(p) = 0, ascending: their
	// registration uses the §4.2 convergecast barriers at the originators.
	barrier []int
	// isBarrier[p] reports membership in barrier.
	isBarrier []bool
	// coverLevel[p] = ℓ(p)+5 for p in [1, B].
	coverLevel []int
	// MaxCoverLevel is the largest coverLevel.
	MaxCoverLevel int
	// nodeMux is the NewMux value NewNodeHandler's stacks copy, written
	// once (nodeMuxOnce).
	nodeMux     *async.Mux
	nodeMuxOnce sync.Once
}

// NewSchedule builds the tables for pulse bound b >= 1.
func NewSchedule(b int) *Schedule {
	if b < 1 {
		panic(fmt.Sprintf("core: pulse bound must be >= 1, got %d", b))
	}
	s := &Schedule{
		B:          b,
		tracked:    make([][]int, b+1),
		regAt:      make(map[int64][]int),
		isBarrier:  make([]bool, b+1),
		coverLevel: make([]int, b+1),
		nodeMux:    async.NewMux(),
	}
	for p := 1; p <= b; p++ {
		p2 := pulse.Prev2(p)
		for pi := p2; pi < p; pi++ {
			s.tracked[pi] = append(s.tracked[pi], p)
		}
		if p2 == 0 {
			s.barrier = append(s.barrier, p)
			s.isBarrier[p] = true
		} else {
			q := pulse.Prev(p)
			k := regKey(p2, q)
			s.regAt[k] = append(s.regAt[k], p)
		}
		s.coverLevel[p] = pulse.CoverLevel(p)
		if s.coverLevel[p] > s.MaxCoverLevel {
			s.MaxCoverLevel = s.coverLevel[p]
		}
	}
	return s
}

func regKey(pi, q int) int64 { return int64(pi)<<32 | int64(q) }

// Tracked returns the safety convergecasts for a virtual node of pulse π,
// ascending. Do not mutate.
func (s *Schedule) Tracked(pi int) []int {
	if pi < 0 || pi > s.B {
		panic(fmt.Sprintf("core: pulse %d outside schedule [0,%d]", pi, s.B))
	}
	return s.tracked[pi]
}

// RegisterSessions returns the sessions a virtual node of pulse π must
// join when its q-status resolves ready. Do not mutate.
func (s *Schedule) RegisterSessions(pi, q int) []int {
	return s.regAt[regKey(pi, q)]
}

// Barrier returns the originator pulses (prev2 = 0), ascending. Do not
// mutate.
func (s *Schedule) Barrier() []int { return s.barrier }

// IsBarrier reports whether p is an originator pulse.
func (s *Schedule) IsBarrier(p int) bool {
	return p >= 1 && p <= s.B && s.isBarrier[p]
}

// CoverLevel returns ℓ(p)+5, the cover level whose clusters gate pulse p.
func (s *Schedule) CoverLevel(p int) int {
	if p < 1 || p > s.B {
		panic(fmt.Sprintf("core: pulse %d outside schedule [1,%d]", p, s.B))
	}
	return s.coverLevel[p]
}

// Consumer reports whether a virtual node of pulse π is the consumer (top)
// of the q-status convergecast: π == prev2(q). The consumer deregisters
// session q (wave pulses) or completes the dereg barrier (originator
// pulses) when its q-status resolves.
func (s *Schedule) Consumer(pi, q int) bool { return pulse.Prev2(q) == pi }
