package pulse

import (
	"testing"
	"testing/quick"
)

// prevBrute searches Definition 4.4 literally.
func prevBrute(p int) int {
	if p == 0 {
		return 0
	}
	l := level(p)
	limit := p - 1<<uint(l)
	for cand := limit; cand > 0; cand-- {
		if level(cand) == l+1 {
			return cand
		}
	}
	return 0
}

func TestLevelSmallValues(t *testing.T) {
	want := map[int]int{1: 0, 2: 1, 3: 0, 4: 2, 6: 1, 8: 3, 12: 2, 20: 2, 1024: 10, 1536: 9}
	for p, l := range want {
		if got := level(p); got != l {
			t.Errorf("Level(%d) = %d, want %d", p, got, l)
		}
	}
	if level(0) != levelInf {
		t.Error("Level(0) must be LevelInf")
	}
}

func TestPrevMatchesBruteForce(t *testing.T) {
	for p := 0; p <= 4096; p++ {
		if got, want := Prev(p), prevBrute(p); got != want {
			t.Fatalf("Prev(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestPrevExamples(t *testing.T) {
	// p=1 (ℓ=0): largest level-1 value ≤ 0 → 0.
	// p=4 (ℓ=2): largest level-3 value ≤ 0 → 0.
	// p=5 (ℓ=0): largest level-1 value ≤ 4 → 2 (4 has level 2).
	// p=6 (ℓ=1): largest level-2 value ≤ 4 → 4.
	// p=12 (ℓ=2): largest level-3 value ≤ 8 → 8.
	// p=20 (ℓ=2): largest level-3 value ≤ 16 → 8 (16 has level 4).
	// p=24 (ℓ=3): largest level-4 value ≤ 16 → 16.
	want := map[int]int{1: 0, 2: 0, 3: 2, 4: 0, 5: 2, 6: 4, 7: 6, 12: 8, 20: 8, 24: 16}
	for p, pr := range want {
		if got := Prev(p); got != pr {
			t.Errorf("Prev(%d) = %d, want %d", p, got, pr)
		}
	}
}

// Lemma 4.7(a): p − prev(p) ≤ 3·2^ℓ(p).
func TestLemma47a(t *testing.T) {
	for p := 1; p <= 1<<14; p++ {
		if gap := p - Prev(p); gap > 3<<uint(level(p)) {
			t.Fatalf("p=%d: gap %d > 3·2^ℓ=%d", p, gap, 3<<uint(level(p)))
		}
	}
}

// Lemma 4.7(b): p − prev(prev(p)) ≤ 9·2^ℓ(p).
func TestLemma47b(t *testing.T) {
	for p := 1; p <= 1<<14; p++ {
		if gap := p - Prev2(p); gap > 9<<uint(level(p)) {
			t.Fatalf("p=%d: gap %d > 9·2^ℓ=%d", p, gap, 9<<uint(level(p)))
		}
	}
}

// Prev strictly decreases toward zero and raises the level by exactly one
// (until hitting 0).
func TestPrevChainStructure(t *testing.T) {
	for p := 1; p <= 4096; p++ {
		pr := Prev(p)
		if pr >= p {
			t.Fatalf("Prev(%d) = %d not smaller", p, pr)
		}
		if pr != 0 && level(pr) != level(p)+1 {
			t.Fatalf("Prev(%d)=%d: level %d, want %d", p, pr, level(pr), level(p)+1)
		}
	}
}

// The prev chain from any p reaches 0 in O(log p) steps.
func TestPrevChainLength(t *testing.T) {
	for _, p := range []int{1, 7, 100, 1023, 1 << 16, 1<<16 + 3} {
		steps := 0
		for q := p; q != 0; q = Prev(q) {
			steps++
			if steps > 64 {
				t.Fatalf("prev chain from %d too long", p)
			}
		}
	}
}

// Lemma 4.14: for any p1 there are only O(t) pulses p ≤ 2^t with
// prev(prev(p)) ≤ p1 ≤ p; per level there are at most 10.
func TestLemma414PerLevelCount(t *testing.T) {
	const T = 12
	P := 1 << T
	for _, p1 := range []int{1, 17, 100, 1000, P / 2} {
		perLevel := map[int]int{}
		for p := 1; p <= P; p++ {
			if Prev2(p) <= p1 && p1 <= p {
				perLevel[level(p)]++
			}
		}
		for l, c := range perLevel {
			if c > 10 {
				t.Fatalf("p1=%d level=%d: %d pulses, want <= 10", p1, l, c)
			}
		}
	}
}

// Lemma 4.16: #pulses p in (0, 2^t] with prev(prev(p)) = 0 is O(t).
func TestLemma416SourcePulseCount(t *testing.T) {
	for T := 1; T <= 14; T++ {
		count := 0
		for p := 1; p <= 1<<uint(T); p++ {
			if Prev2(p) == 0 {
				count++
			}
		}
		if count > 10*(T+1) {
			t.Fatalf("T=%d: %d root pulses, want O(T)", T, count)
		}
	}
}

// Lemma 4.13: Σ 2^ℓ(p) over p ≤ 2^t equals (t+1)·2^t exactly... bounded by.
func TestLemma413SumLevels(t *testing.T) {
	for T := 0; T <= 14; T++ {
		P := 1 << uint(T)
		got := sumLevels(P)
		bound := (T + 1) * P
		if got > bound {
			t.Fatalf("T=%d: SumLevels=%d > (t+1)2^t=%d", T, got, bound)
		}
		if got < P {
			t.Fatalf("T=%d: SumLevels=%d < 2^t", T, got)
		}
	}
}

func TestQuickPrevInvariants(t *testing.T) {
	f := func(raw uint16) bool {
		p := int(raw) + 1
		pr := Prev(p)
		if pr < 0 || pr >= p {
			return false
		}
		if pr != prevBrute(p) {
			return false
		}
		return p-pr <= 3<<uint(level(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative-level": func() { level(-1) },
		"zero-hostdist":  func() { hostDistBound(0) },
		"zero-coverlvl":  func() { CoverLevel(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
