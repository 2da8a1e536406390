// Package pulse implements the pulse arithmetic of §4.1.1: the level ℓ(p)
// of a pulse, the prev(p) chain, and host-distance bounds (Lemma 4.7).
// Both the asynchronous BFS and the general synchronizer hang their entire
// safety/registration schedule on these three functions.
package pulse

import "math/bits"

// levelInf is the level of pulse 0 (the paper defines ℓ(0) = ∞).
const levelInf = 1 << 30

// level returns ℓ(p): the exponent of the highest power of 2 dividing p,
// and levelInf for p = 0 (Definition 4.3). Negative pulses panic.
func level(p int) int {
	switch {
	case p < 0:
		panic("pulse: negative pulse")
	case p == 0:
		return levelInf
	default:
		return bits.TrailingZeros64(uint64(p))
	}
}

// Prev returns prev(p) (Definition 4.4): the largest p̃ ≥ 0 such that
// ℓ(p̃) = ℓ(p)+1 and p̃ ≤ p − 2^ℓ(p), clamped at 0; prev(0) = 0.
func Prev(p int) int {
	if p == 0 {
		return 0
	}
	l := level(p)
	step := 1 << uint(l)
	cand := p - step // divisible by 2^(l+1) since p = odd·2^l
	if cand <= 0 {
		return 0
	}
	if level(cand) == l+1 {
		return cand
	}
	// cand divisible by 2^(l+2) or more; step back one 2^(l+1) block.
	cand -= 2 * step
	if cand <= 0 {
		return 0
	}
	return cand
}

// Prev2 returns prev(prev(p)).
func Prev2(p int) int { return Prev(Prev(p)) }

// The bounds of Lemma 4.7, used when sizing cover radii:
//
//	p − prev(p)        ≤ 3·2^ℓ(p)
//	p − prev(prev(p))  ≤ 9·2^ℓ(p)
//
// hostDistBound returns 3·2^ℓ(p) (the distance from a node of pulse p to
// its host, Lemma 4.7(c)). It panics for p = 0, whose host is itself.
func hostDistBound(p int) int {
	if p <= 0 {
		panic("pulse: HostDistBound needs p > 0")
	}
	return 3 << uint(level(p))
}

// CoverLevel returns ℓ(p)+5: registrations for pulse p use clusters of the
// sparse 2^(ℓ(p)+5)-cover (§4.1.2).
func CoverLevel(p int) int {
	if p <= 0 {
		panic("pulse: CoverLevel needs p > 0")
	}
	return level(p) + 5
}

// sumLevels returns Σ_{p=1..P} 2^ℓ(p); Lemma 4.13 proves it is O(P·log P).
// Benchmarks use it as the predicted time-shape of the pulse schedule.
func sumLevels(P int) int {
	total := 0
	for p := 1; p <= P; p++ {
		total += 1 << uint(level(p))
	}
	return total
}
