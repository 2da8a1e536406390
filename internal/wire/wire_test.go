package wire

import (
	"testing"
	"unsafe"
)

// TestBodyIsPointerFree pins the property the engines' performance depends
// on: a Body (and anything embedding it by value) must contain no
// pointers, so inbox/outbox/event buffers are noscan and copies pay no
// write barriers.
func TestBodyIsPointerFree(t *testing.T) {
	type probe struct{ b Body }
	if unsafe.Sizeof(probe{}) != unsafe.Sizeof(Body{}) {
		t.Skip("padding changed; re-derive")
	}
	// reflect has no direct "contains pointers" query; rely on the
	// compile-time shape instead: every field is a scalar or Seg (two
	// scalars). This test exists to fail loudly if someone adds a slice,
	// map, or pointer field back.
	if unsafe.Sizeof(Body{}) != 48 {
		t.Fatalf("Body is %d bytes, want 48 (Kind+Sub+P header, 4 words, Seg handle)", unsafe.Sizeof(Body{}))
	}
	if unsafe.Sizeof(Seg{}) != 8 {
		t.Fatalf("Seg is %d bytes, want 8", unsafe.Sizeof(Seg{}))
	}
}

func TestFrameUnframeRoundTrip(t *testing.T) {
	var a Arena
	seg, view := a.Alloc(3)
	view[0], view[1], view[2] = 9, 8, 7
	inner := Body{Kind: 7, A: 1, B: -2, C: 3, D: 1 << 40, Seg: seg}
	outer := Frame(3, 12, inner)
	if outer.Kind != 3 || outer.Sub != 7 || outer.P != 12 {
		t.Fatalf("frame fields: %+v", outer)
	}
	pulse, got := outer.Unframe()
	if pulse != 12 {
		t.Fatalf("pulse = %d, want 12", pulse)
	}
	if got != inner {
		t.Fatalf("round trip lost data: %+v vs %+v", got, inner)
	}
	if d := a.Data(got.Seg); len(d) != 3 || d[0] != 9 || d[2] != 7 {
		t.Fatalf("segment through framing = %v", d)
	}
}

func TestFrameRejectsNested(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double framing")
		}
	}()
	Frame(1, 0, Frame(2, 3, Body{Kind: 4}))
}

func TestBoolWords(t *testing.T) {
	if !ToBool(FromBool(true)) || ToBool(FromBool(false)) {
		t.Fatal("bool words do not round-trip")
	}
}

func TestArenaAllocDataRelease(t *testing.T) {
	var a Arena
	s1, v1 := a.Alloc(5)
	if s1.Len() != 5 || len(v1) != 5 {
		t.Fatalf("len = %d/%d, want 5", s1.Len(), len(v1))
	}
	for i := range v1 {
		v1[i] = int32(i + 1)
	}
	if d := a.Data(s1); d[4] != 5 {
		t.Fatalf("Data view = %v", d)
	}
	a.Release(s1)
	s2, v2 := a.Alloc(7) // same class: must reuse s1's storage
	if s2.off != s1.off {
		t.Fatalf("same-class alloc after release got fresh storage (off %d vs %d)", s2.off, s1.off)
	}
	for i, v := range v2 {
		if v != 0 {
			t.Fatalf("recycled segment not zeroed at %d: %d", i, v)
		}
	}
	carves, rec := a.Stats()
	if carves != 1 || rec != 1 {
		t.Fatalf("stats = %d carves, %d recycled; want 1, 1", carves, rec)
	}
}

func TestArenaEdgeCases(t *testing.T) {
	var a Arena
	if s, v := a.Alloc(0); !s.IsZero() || v != nil {
		t.Fatal("Alloc(0) must return the zero Seg")
	}
	if s, v := a.Alloc(-3); !s.IsZero() || v != nil {
		t.Fatal("Alloc(<0) must return the zero Seg")
	}
	a.Release(Seg{}) // must not panic
	if d := a.Data(Seg{}); d != nil {
		t.Fatal("Data of the zero Seg must be nil")
	}
	one, _ := a.Alloc(1)
	if one.Len() != 1 {
		t.Fatalf("Alloc(1) len = %d", one.Len())
	}
	// Oversize class: gets a dedicated chunk, still recycles.
	big, bv := a.Alloc(1 << 18)
	if len(bv) != 1<<18 {
		t.Fatalf("oversize len = %d", len(bv))
	}
	bv[1<<18-1] = 42
	a.Release(big)
	big2, bv2 := a.Alloc(1 << 18)
	if big2.off != big.off || bv2[1<<18-1] != 0 {
		t.Fatal("oversize segment not recycled and zeroed")
	}
}

func TestArenaViewsStayValidAcrossGrowth(t *testing.T) {
	var a Arena
	s1, v1 := a.Alloc(4)
	v1[0] = 77
	// Force many new chunks.
	for i := 0; i < 40; i++ {
		a.Alloc(1 << 15)
	}
	if d := a.Data(s1); d[0] != 77 {
		t.Fatalf("early view invalidated by growth: %v", d[:1])
	}
	if &v1[0] != &a.Data(s1)[0] {
		t.Fatal("chunk storage moved")
	}
}

func TestArenaSteadyStateStopsAllocating(t *testing.T) {
	var a Arena
	for i := 0; i < 100; i++ {
		s, _ := a.Alloc(9)
		a.Release(s)
	}
	carves, rec := a.Stats()
	if carves != 1 {
		t.Fatalf("steady-state loop carved %d times, want 1", carves)
	}
	if rec != 99 {
		t.Fatalf("recycled %d times, want 99", rec)
	}
}

// TestArenaReset verifies the engine-reuse contract: Reset invalidates
// handles, retains standard chunks (no fresh carving for a repeat of the
// same workload), drops oversize chunks, and hands out zeroed segments
// again.
func TestArenaReset(t *testing.T) {
	var a Arena
	// A workload with a few size classes plus one oversize segment.
	fill := func() []Seg {
		var segs []Seg
		for i := 0; i < 50; i++ {
			s, view := a.Alloc(1 << (i % 6))
			for j := range view {
				view[j] = int32(i + 1)
			}
			segs = append(segs, s)
		}
		s, _ := a.Alloc(1 << 17) // oversize: dedicated chunk
		return append(segs, s)
	}
	fill()
	carves1, _ := a.Stats()
	a.Reset()
	segs := fill()
	carves2, _ := a.Stats()
	// The second fill re-carves the SAME standard chunk storage: only the
	// oversize chunk (dropped at Reset) forces a fresh allocation.
	if carves2-carves1 != uint64(len(segs)) {
		t.Fatalf("post-reset fill carved %d times, want %d (bump-carving reused chunks)",
			carves2-carves1, len(segs))
	}
	for _, s := range segs[:len(segs)-1] {
		view := a.Data(s)
		// fill wrote i+1 everywhere; a dirty reused chunk would have shown
		// stale values at Alloc time (Alloc must return zeroed storage —
		// checked below with a third cycle).
		if len(view) == 0 {
			t.Fatal("empty view after reset")
		}
	}
	a.Reset()
	s, view := a.Alloc(32)
	for j, w := range view {
		if w != 0 {
			t.Fatalf("reused segment word %d = %d, want 0", j, w)
		}
	}
	a.Release(s)
}

// TestArenaOversizeBoundaryClass pins the c == chunkBits boundary: a
// dedicated oversize chunk whose size equals a standard chunk's must never
// be re-carved by the bump cursor while its segment is live, nor survive
// Reset as a "standard" chunk.
func TestArenaOversizeBoundaryClass(t *testing.T) {
	var a Arena
	// Dedicated chunk of exactly 1<<chunkBits words (class == chunkBits).
	big, bigView := a.Alloc(1 << chunkBits)
	for i := range bigView {
		bigView[i] = 7
	}
	// Exhaust standard chunks so the bump cursor must advance repeatedly —
	// it must skip the oversize chunk, not re-carve it.
	for i := 0; i < 3*(1<<(chunkBits-10)); i++ {
		_, view := a.Alloc(1 << 10)
		for j := range view {
			view[j] = -1
		}
	}
	for i, w := range a.Data(big) {
		if w != 7 {
			t.Fatalf("oversize segment word %d = %d: bump cursor re-carved a live dedicated chunk", i, w)
		}
	}
	a.Reset()
	// The dedicated chunk is dropped at Reset; fresh allocations must be
	// zeroed regardless of which retained chunk serves them.
	for i := 0; i < 3*(1<<(chunkBits-10)); i++ {
		_, view := a.Alloc(1 << 10)
		for j, w := range view {
			if w != 0 {
				t.Fatalf("post-reset alloc %d word %d = %d, want 0", i, j, w)
			}
		}
	}
}

func TestArenaLiveAndReleaseAll(t *testing.T) {
	var a Arena
	if a.Live() != 0 {
		t.Fatalf("fresh arena live = %d", a.Live())
	}
	var segs []Seg
	for i := 0; i < 5; i++ {
		s, _ := a.Alloc(8)
		segs = append(segs, s)
	}
	if a.Live() != 5 {
		t.Fatalf("live after 5 allocs = %d", a.Live())
	}
	a.Release(segs[4])
	if a.Live() != 4 {
		t.Fatalf("live after one release = %d", a.Live())
	}
	// ReleaseAll skips zero Segs and releases the rest under one lock.
	a.ReleaseAll([]Seg{segs[0], {}, segs[1], {}})
	if a.Live() != 2 {
		t.Fatalf("live after batch release = %d", a.Live())
	}
	// Released storage must actually be recycled.
	s, _ := a.Alloc(8)
	if s.off != segs[1].off && s.off != segs[0].off && s.off != segs[4].off {
		t.Fatalf("batch-released segment not recycled (off %d)", s.off)
	}
	a.ReleaseAll(nil) // must not panic
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("live after Reset = %d", a.Live())
	}
}
