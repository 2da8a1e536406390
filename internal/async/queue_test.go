package async

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/wire"
)

// TestEventQueueOrder drives the calendar queue with a randomized
// open-system workload — pops interleaved with pushes at now+d, d in (0,1]
// like the simulator — and checks it yields exactly the (t, seq) order of a
// reference sort.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var seq uint64
	var now float64
	var pushed, popped []event

	push := func(d float64) {
		ev := event{t: now + d, seq: seq}
		seq++
		pushed = append(pushed, ev)
		q.push(&ev)
	}
	// Seed a burst, then run pop-then-maybe-push cycles.
	for i := 0; i < 50; i++ {
		push(rng.Float64()*0.999 + 0.001)
	}
	for !q.empty() {
		ev := popEvent(&q)
		if ev.t < now {
			t.Fatalf("time went backwards: %g after %g", ev.t, now)
		}
		now = ev.t
		popped = append(popped, ev)
		if len(pushed) < 5000 {
			for k := rng.Intn(3); k > 0; k-- {
				switch rng.Intn(4) {
				case 0:
					push(1.0) // maximal delay: lands exactly one unit out
				case 1:
					push(1.0 / (1 << 16)) // near-instant
				default:
					push(rng.Float64()*0.999 + 0.001)
				}
			}
		}
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d events, pushed %d", len(popped), len(pushed))
	}
	// The pop sequence must equal the (t, seq)-sorted push sequence.
	sort.Slice(pushed, func(i, j int) bool { return evLess(pushed[i], pushed[j]) })
	for i := range pushed {
		if popped[i].seq != pushed[i].seq || popped[i].t != pushed[i].t {
			t.Fatalf("pop %d = {t:%g seq:%d}, want {t:%g seq:%d}",
				i, popped[i].t, popped[i].seq, pushed[i].t, pushed[i].seq)
		}
	}
}

// popEvent pops q's earliest event and reassembles it from its key and
// cell.
func popEvent(q *eventQueue) event {
	k, c := q.pop()
	return event{t: k.t, seq: k.seq, evCell: *c}
}

// TestEventQueueOverflow exercises the store for events beyond the
// one-unit wheel horizon with out-of-order, far-out timestamps (only
// reachable by adversaries that break the delay contract; the queue must
// still order correctly).
func TestEventQueueOverflow(t *testing.T) {
	var q eventQueue
	for i := 0; i < 200; i++ {
		q.push(&event{t: float64(i%17) * 1.7, seq: uint64(i)})
	}
	var last event
	first := true
	for !q.empty() {
		ev := popEvent(&q)
		if !first && evLess(ev, last) {
			t.Fatalf("out of order: {t:%g seq:%d} after {t:%g seq:%d}",
				ev.t, ev.seq, last.t, last.seq)
		}
		last, first = ev, false
	}
}

// BenchmarkEventQueuePushPop prices the queue's regimes separately, each
// as a hold pattern (one push per pop over a standing population): inorder
// is Fixed's shape, every push in (t, seq) order into the slot behind the
// one draining; random spreads SeededRandom-style delays over every slot,
// out of order, at about two keys per slot; dense is the same delays over
// flood-random's standing population (~1 000 keys per slot, so bags are
// sorted on arrival); near puts every delay in (0, 1/512], so most pushes
// land in the clock's own tick, the straggler slot; horizon is Fixed{1}'s
// shape, every push at cur+cqBuckets, through the overflow store and its
// migration. Each reports the queue's retained bytes per standing event:
// its slab chunks and its slots' key capacity.
func BenchmarkEventQueuePushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 1024)
	near := make([]float64, 1024)
	for i := range random {
		random[i] = rng.Float64()*0.999 + 0.001
		near[i] = random[i] / 512
	}
	for _, bc := range []struct {
		name     string
		delays   []float64
		standing int
	}{
		{"inorder", []float64{1.0 / cqBuckets}, 512},
		{"random", random, 512},
		{"dense", random, 1 << 18},
		{"near", near, 1 << 14},
		{"horizon", []float64{1}, 512},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var q eventQueue
			ev := event{evCell: evCell{kind: evDeliver}}
			mask := len(bc.delays) - 1 // lengths are powers of two
			for i := 0; i < bc.standing; i++ {
				ev.t, ev.seq = bc.delays[i&mask], uint64(i)
				q.push(&ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, _ := q.pop()
				ev.t, ev.seq = k.t+bc.delays[i&mask], uint64(bc.standing+i)
				q.push(&ev)
			}
			b.StopTimer()
			b.ReportMetric(float64(q.retainedBytes())/float64(bc.standing), "retained-B/event")
		})
	}
}

// retainedBytes is what q keeps between runs: its slab chunks and every
// slot's key capacity.
func (q *eventQueue) retainedBytes() uintptr {
	n := uintptr(len(q.chunks)) * unsafe.Sizeof([cqChunk]evCell{})
	for _, s := range append(q.slots[:], q.late) {
		n += uintptr(cap(s.keys)) * unsafe.Sizeof(evKey{})
	}
	return n
}

// TestEventQueueLayout pins the sizes the slab and the slots are priced
// at, a 72-byte cell and a 24-byte key, field by field.
func TestEventQueueLayout(t *testing.T) {
	var c evCell
	var k evKey
	for _, f := range []struct {
		name      string
		off, want uintptr
		why       string
	}{
		{"link", unsafe.Offsetof(c.link), 0, "a 32-bit LinkID, complemented for a shard's remote-born delivery"},
		{"src", unsafe.Offsetof(c.src), 4, "kept, not derived from the CSR: a pop reads no graph column"},
		{"dst", unsafe.Offsetof(c.dst), 8, "kept for the same reason as src"},
		{"kind", unsafe.Offsetof(c.kind), 12, "three values in one byte"},
		{"attempt", unsafe.Offsetof(c.attempt), 13, "a retry count within the fault budget, one byte"},
		{"proto", unsafe.Offsetof(c.proto), 14, "16 bits, closing the second word: send refuses a wider proto"},
		{"stage", unsafe.Offsetof(c.stage), 16, "a full int: Msg.Stage crosses processes as an i64; on the free list, the next free cell"},
		{"body", unsafe.Offsetof(c.body), 24, "48 bytes: two kinds, a framing int32, four words, a segment"},
		{"cell size", unsafe.Sizeof(c), 72, "the slab's cost per queued event"},
		{"key t", unsafe.Offsetof(k.t), 0, "the order's first word"},
		{"key seq", unsafe.Offsetof(k.seq), 8, "the order's tie-break"},
		{"key idx", unsafe.Offsetof(k.idx), 16, "the cell's 32-bit slab index, padded to the word"},
		{"key size", unsafe.Sizeof(k), 24, "a slot's cost per queued event"},
	} {
		if f.off != f.want {
			t.Errorf("%s at %d bytes, want %d (%s)", f.name, f.off, f.want, f.why)
		}
	}
}

// TestEventQueuePopBefore drives the window-draining primitive against a
// reference sort: popBefore(limit) must yield exactly the events with
// t < limit, in (t, seq) order, and leave the rest poppable afterwards.
func TestEventQueuePopBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q eventQueue
	var all []event
	now := 0.0
	for i := 0; i < 400; i++ {
		ev := event{t: now + rng.Float64()*0.999 + 0.001, seq: uint64(i)}
		all = append(all, ev)
		q.push(&ev)
		if i%7 == 0 { // keep the clock moving like the simulator does
			now += 0.05
		}
	}
	sort.Slice(all, func(i, j int) bool { return evLess(all[i], all[j]) })
	limit := all[len(all)/3].t // boundary event: t >= limit stays queued
	var before []event
	for {
		k, ev := q.popBefore(limit)
		if ev == nil {
			break
		}
		before = append(before, event{t: k.t, seq: k.seq, evCell: *ev})
	}
	// minT on the remainder must report the first at-or-beyond-limit event.
	if mt, ok := q.minT(); !ok || mt < limit {
		t.Fatalf("minT after window = %g, want >= %g", mt, limit)
	}
	i := 0
	for ; i < len(all) && all[i].t < limit; i++ {
		if i >= len(before) || before[i].seq != all[i].seq {
			t.Fatalf("popBefore order diverges at %d", i)
		}
	}
	if i != len(before) {
		t.Fatalf("popBefore yielded %d events, want %d", len(before), i)
	}
	for ; i < len(all); i++ {
		ev := popEvent(&q)
		if ev.seq != all[i].seq || ev.t != all[i].t {
			t.Fatalf("post-window pop %d = {t:%g seq:%d}, want {t:%g seq:%d}",
				i, ev.t, ev.seq, all[i].t, all[i].seq)
		}
	}
	if !q.empty() {
		t.Fatal("queue not drained")
	}
}

// TestEventQueueReset verifies reset yields an empty, reusable queue whose
// retained capacity still orders correctly.
func TestEventQueueReset(t *testing.T) {
	var q eventQueue
	for i := 0; i < 300; i++ {
		q.push(&event{t: float64(i%13) * 0.07, seq: uint64(i)})
	}
	q.pop()
	q.reset()
	if !q.empty() {
		t.Fatal("queue not empty after reset")
	}
	if _, ok := q.minT(); ok {
		t.Fatal("minT reported an event after reset")
	}
	for i := 0; i < 100; i++ {
		q.push(&event{t: float64((i*31)%97) / 97, seq: uint64(i)})
	}
	last := -1.0
	for !q.empty() {
		ev := popEvent(&q)
		if ev.t < last {
			t.Fatalf("out of order after reset: %g after %g", ev.t, last)
		}
		last = ev.t
	}
}

// TestSlotShapes pins the three slot shapes and the moves between them.
func TestSlotShapes(t *testing.T) {
	const tick = 1.0 / cqBuckets
	keyTs := func(ks []evKey) []float64 {
		var ts []float64
		for _, k := range ks {
			ts = append(ts, k.t/tick)
		}
		return ts
	}

	// A wheel slot ahead of the clock is a bag: pushes append in arrival
	// order, nothing sifts, and the flag records the first one out of
	// order. The clock's arrival sorts it once; from then on a push at or
	// below the clock's tick goes to the straggler slot and the current
	// run is read as it was sorted.
	t.Run("bag-and-stragglers", func(t *testing.T) {
		var q eventQueue
		pushed := []float64{3.9, 3.1, 3.5, 3.2, 3.7}
		for i, x := range pushed {
			q.push(&event{t: x * tick, seq: uint64(i)})
		}
		bag := &q.slots[3]
		if !bag.unsorted || bag.heaped || !slices.Equal(keyTs(bag.keys), pushed) {
			t.Fatalf("bag unsorted=%v heaped=%v keys %v, want the push order %v", bag.unsorted, bag.heaped, keyTs(bag.keys), pushed)
		}
		var in eventQueue
		in.push(&event{t: 3.1 * tick, seq: 0})
		in.push(&event{t: 3.1 * tick, seq: 1})
		if in.slots[3].unsorted {
			t.Fatal("in-order pushes flagged the bag")
		}

		if mt, _ := q.minT(); mt != 3.1*tick || q.cur != 3 {
			t.Fatalf("minT = %g at tick %d, want 3.1 ticks at tick 3", mt/tick, q.cur)
		}
		sorted := []float64{3.1, 3.2, 3.5, 3.7, 3.9}
		if bag.unsorted || bag.heaped || !slices.Equal(keyTs(bag.keys), sorted) {
			t.Fatalf("reached bag unsorted=%v heaped=%v keys %v, want the run %v", bag.unsorted, bag.heaped, keyTs(bag.keys), sorted)
		}
		if ev := popEvent(&q); ev.t != 3.1*tick {
			t.Fatalf("first pop at %g ticks", ev.t/tick)
		}
		// The clock's own tick, below the run's next key; a clamp from an
		// earlier tick; the clock's own tick again, above the run's end.
		q.push(&event{t: 3.15 * tick, seq: 10})
		q.push(&event{t: 2.5 * tick, seq: 11})
		q.push(&event{t: 3.95 * tick, seq: 12})
		if q.late.len() != 3 || !q.late.heaped {
			t.Fatalf("straggler slot holds %d keys (heaped=%v), want the three pushes as a heap", q.late.len(), q.late.heaped)
		}
		if bag.head != 1 || bag.unsorted || !slices.Equal(keyTs(bag.keys), sorted) {
			t.Fatalf("stragglers touched the current run: head=%d unsorted=%v keys %v", bag.head, bag.unsorted, keyTs(bag.keys))
		}
		for _, want := range []float64{2.5, 3.15, 3.2, 3.5, 3.7, 3.9, 3.95} {
			if ev := popEvent(&q); ev.t != want*tick {
				t.Fatalf("pop at %g ticks, want %g", ev.t/tick, want)
			}
		}
		if !q.empty() || q.late.len() != 0 || q.late.heaped || bag.len() != 0 || bag.head != 0 {
			t.Fatalf("drained queue: late %d heaped=%v, bag %d head %d", q.late.len(), q.late.heaped, bag.len(), bag.head)
		}
	})

	// The overflow store is a run while pushes arrive in order, a heap from
	// the first one out of order, and a run again once it drains.
	t.Run("overflow-run-heap-run", func(t *testing.T) {
		var q eventQueue
		o := &q.slots[cqBuckets]
		for i, x := range []float64{1.5, 1.75, 2} {
			q.push(&event{t: x, seq: uint64(i)})
		}
		if o.heaped || o.len() != 3 {
			t.Fatalf("in-order overflow: heaped=%v len=%d, want a run of 3", o.heaped, o.len())
		}
		q.push(&event{t: 1.25, seq: 3})
		if !o.heaped || o.len() != 4 {
			t.Fatalf("out-of-order overflow: heaped=%v len=%d, want a heap of 4", o.heaped, o.len())
		}
		for _, want := range []float64{1.25, 1.5, 1.75, 2} {
			if ev := popEvent(&q); ev.t != want {
				t.Fatalf("pop at %g, want %g", ev.t, want)
			}
		}
		if o.heaped || o.len() != 0 {
			t.Fatalf("drained overflow: heaped=%v len=%d, want an empty run", o.heaped, o.len())
		}
	})

	// The run/heap slot itself: in-order pushes keep a sorted run read
	// through the head cursor; the first out-of-order push into a
	// half-drained run compacts the unread tail to the front and heaps it;
	// draining makes it a run again.
	t.Run("run-to-heap", func(t *testing.T) {
		var s cqSlot
		for i := 0; i < 10; i++ {
			s.push(evKey{t: 1, seq: uint64(10 + i), idx: uint32(i)})
		}
		for i := 0; i < 4; i++ {
			if k := s.pop(); k.seq != uint64(10+i) {
				t.Fatalf("run pop %d = seq %d", i, k.seq)
			}
		}
		if s.heaped || s.head != 4 || len(s.keys) != 10 {
			t.Fatalf("in-order pushes left heaped=%v head=%d len=%d, want a run read to 4 of 10", s.heaped, s.head, len(s.keys))
		}
		s.push(evKey{t: 1, seq: 3, idx: 99}) // earlier than everything unread
		if !s.heaped || s.head != 0 || len(s.keys) != 7 {
			t.Fatalf("out-of-order push left heaped=%v head=%d len=%d, want a heap of 7", s.heaped, s.head, len(s.keys))
		}
		s.push(evKey{t: 1, seq: 16, idx: 98}) // in order again, but a heap stays a heap
		for _, want := range []uint64{3, 14, 15, 16, 16, 17, 18, 19} {
			if k := s.pop(); k.seq != want {
				t.Fatalf("heap pop = seq %d, want %d", k.seq, want)
			}
		}
		if s.heaped || s.len() != 0 || s.head != 0 {
			t.Fatalf("drained slot heaped=%v head=%d len=%d, want an empty run", s.heaped, s.head, len(s.keys))
		}

		// A run that never quite drains reuses its consumed prefix instead
		// of growing: the overflow store under staggered unit delays.
		s = cqSlot{}
		s.push(evKey{seq: 0})
		for i := uint64(1); i < 10000; i++ {
			s.push(evKey{seq: i})
			if k := s.pop(); k.seq != i-1 {
				t.Fatalf("hold pop = seq %d, want %d", k.seq, i-1)
			}
		}
		if s.heaped || cap(s.keys) > 8 {
			t.Fatalf("never-draining run: heaped=%v cap=%d, want a run of bounded capacity", s.heaped, cap(s.keys))
		}
	})
}

// TestSortKeys checks the typed introsort against slices.SortFunc on the
// input orders quicksort variants are known to trip on, at sizes on both
// sides of the insertion-sort cutoff, and with the depth cap forced so the
// heapsort fallback runs on whole ranges and on partitions.
func TestSortKeys(t *testing.T) {
	cmpKeys := func(a, b evKey) int {
		if a.less(b) {
			return -1
		}
		if b.less(a) {
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(3))
	inputs := map[string]func(i, n int) evKey{
		"random":     func(i, n int) evKey { return evKey{t: rng.Float64()} },
		"sorted":     func(i, n int) evKey { return evKey{t: float64(i)} },
		"reversed":   func(i, n int) evKey { return evKey{t: float64(n - i)} },
		"equal-t":    func(i, n int) evKey { return evKey{t: 1, seq: uint64(rng.Intn(n))} },
		"organ-pipe": func(i, n int) evKey { return evKey{t: float64(min(i, n-1-i))} },
		"few-values": func(i, n int) evKey { return evKey{t: float64(rng.Intn(4))} },
	}
	for name, gen := range inputs {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000, 4096} {
			for _, depth := range []int{-1, 0, 1} { // -1: sortKeys's own cap
				keys := make([]evKey, n)
				for i := range keys {
					keys[i] = gen(i, n)
					keys[i].seq = keys[i].seq<<32 | uint64(i) // every key distinct
					keys[i].idx = uint32(i)
				}
				want := slices.Clone(keys)
				slices.SortFunc(want, cmpKeys)
				if depth < 0 {
					sortKeys(keys)
				} else {
					quickSortKeys(keys, depth)
				}
				if !slices.Equal(keys, want) {
					t.Fatalf("%s n=%d depth=%d: typed sort differs from slices.SortFunc", name, n, depth)
				}
			}
		}
	}
}

// qModel drives an eventQueue and a sorted-slice oracle through the same
// operations, checking every answer and, after every step, the queue's
// structural invariants.
type qModel struct {
	t      testing.TB
	q      eventQueue
	oracle []event // queued events, sorted by (t, seq)
	popped []event // pop history, the rollback re-push's source
	now    float64 // timestamp of the latest pop
	seq    uint64
}

func (m *qModel) push(ev event) {
	m.q.push(&ev)
	i := sort.Search(len(m.oracle), func(i int) bool { return evLess(ev, m.oracle[i]) })
	m.oracle = append(m.oracle, event{})
	copy(m.oracle[i+1:], m.oracle[i:])
	m.oracle[i] = ev
	m.check()
}

// pushNew queues a fresh event at time t.
func (m *qModel) pushNew(t float64) {
	m.push(event{t: t, seq: m.seq, evCell: echoCell(t, m.seq)})
	m.seq++
}

// echoCell is the cell pushNew gives the event (t, seq): every field
// echoes the key, at its extreme values along the way, so a dropped field
// or a crossed slab index shows up as a cell mismatch.
func echoCell(t float64, seq uint64) evCell {
	return evCell{
		link:    ^graph.LinkID(seq), // a shard's complemented back link
		src:     graph.NodeID(seq),
		dst:     graph.NodeID(seq) + 1,
		kind:    evDeliver + uint8(seq%3),
		attempt: 255 - uint8(seq%2),
		proto:   uint16(seq%2) * maxProto,
		stage:   1<<40 + int(seq),
		body:    wire.Body{Kind: 1, Sub: 2, P: -3, A: int64(seq), B: int64(math.Float64bits(t)), C: -1, D: math.MaxInt64},
	}
}

func (m *qModel) popBefore(limit float64) bool {
	k, ev := m.q.popBefore(limit)
	if len(m.oracle) == 0 || m.oracle[0].t >= limit {
		if ev != nil {
			m.t.Fatalf("popBefore(%g) = {t:%g seq:%d}, want none", limit, k.t, k.seq)
		}
		return false
	}
	if ev == nil {
		m.t.Fatalf("popBefore(%g) = none, want %+v", limit, m.oracle[0])
	}
	if got := (event{t: k.t, seq: k.seq, evCell: *ev}); got != m.oracle[0] {
		m.t.Fatalf("popBefore(%g) = %+v, want %+v", limit, got, m.oracle[0])
	}
	m.now = k.t
	m.popped = append(m.popped, m.oracle[0])
	m.oracle = m.oracle[1:]
	m.check()
	return true
}

func (m *qModel) minT() {
	mt, ok := m.q.minT()
	if ok != (len(m.oracle) > 0) || (ok && mt != m.oracle[0].t) {
		m.t.Fatalf("minT = %g,%v with %d queued", mt, ok, len(m.oracle))
	}
	m.check()
}

func (m *qModel) reset() {
	chunks := len(m.q.chunks)
	m.q.reset()
	m.oracle, m.popped, m.now = nil, nil, 0
	if len(m.q.chunks) != chunks {
		m.t.Fatalf("reset changed the slab from %d to %d chunks", chunks, len(m.q.chunks))
	}
	m.check()
}

// check asserts size accounting, that forEach visits exactly the queued
// events, and that every slab index handed out since reset is in exactly
// one place: queued once, on the free list (threaded through the free
// cells) once, or held as the latest pop.
func (m *qModel) check() {
	q := &m.q
	if q.size != len(m.oracle) || q.empty() != (len(m.oracle) == 0) {
		m.t.Fatalf("size %d (empty=%v), oracle holds %d", q.size, q.empty(), len(m.oracle))
	}
	visited := 0
	q.forEach(func(k evKey, c *evCell) {
		visited++
		if want := echoCell(k.t, k.seq); *c != want {
			m.t.Fatalf("slab cell of {t:%g seq:%d} is %+v, want %+v", k.t, k.seq, *c, want)
		}
	})
	if visited != q.size {
		m.t.Fatalf("forEach visited %d events, size %d", visited, q.size)
	}
	seen := make(map[uint32]bool, q.fresh)
	claim := func(idx uint32, where string) {
		if idx >= q.fresh || seen[idx] {
			m.t.Fatalf("slab index %d (%s) is live twice or was never handed out (fresh=%d)", idx, where, q.fresh)
		}
		seen[idx] = true
	}
	queued := func(s *cqSlot) {
		for _, k := range s.keys[s.head:] {
			claim(k.idx, "queued")
		}
	}
	queued(&q.late)
	for i := range q.slots {
		queued(&q.slots[i])
	}
	for f := q.free; f != 0; f = uint32(q.at(f - 1).stage) {
		claim(f-1, "free list")
	}
	if q.held != 0 {
		claim(q.held-1, "held")
	}
	if len(seen) != int(q.fresh) {
		m.t.Fatalf("%d of %d slab indices unaccounted for", int(q.fresh)-len(seen), q.fresh)
	}
	if int(q.fresh) > len(q.chunks)*cqChunk {
		m.t.Fatalf("fresh %d beyond %d chunks", q.fresh, len(q.chunks))
	}
	m.checkShapes()
}

// checkShapes asserts each slot's shape and the tick range of its keys:
// stragglers at or below the clock's tick, wheel slot i only tick ≡ i in
// [cur, cur+cqBuckets), the overflow store only beyond that; a heap is a
// valid heap, and a run or an unflagged bag is sorted.
func (m *qModel) checkShapes() {
	q := &m.q
	// slot: a wheel index, cqBuckets for the overflow store, -1 for the
	// straggler slot.
	shape := func(slot int) {
		s, lo, hi := &q.late, int64(math.MinInt64), q.cur
		switch {
		case slot == cqBuckets:
			s, lo, hi = &q.slots[slot], q.cur+cqBuckets, math.MaxInt64
		case slot >= 0:
			s, lo, hi = &q.slots[slot], q.cur, q.cur+cqBuckets-1
		}
		bag := slot >= 0 && slot < cqBuckets
		name := func() string {
			switch {
			case slot < 0:
				return "straggler slot"
			case bag:
				return fmt.Sprint("wheel slot ", slot)
			}
			return "overflow store"
		}
		ks := s.keys[s.head:]
		for _, k := range ks {
			tick := cqTick(k.t)
			if tick < lo || tick > hi || (bag && int(tick&(cqBuckets-1)) != slot) {
				m.t.Fatalf("%s holds a key of tick %d, clock at %d", name(), tick, q.cur)
			}
		}
		switch {
		case s.heaped && (bag || s.head != 0 || s.unsorted):
			m.t.Fatalf("%s heaped with head=%d unsorted=%v", name(), s.head, s.unsorted)
		case s.unsorted && !bag:
			m.t.Fatalf("%s flagged as an unsorted bag", name())
		case s.heaped:
			for i := 1; i < len(ks); i++ {
				if ks[i].less(ks[(i-1)/2]) {
					m.t.Fatalf("%s violates the heap order at %d", name(), i)
				}
			}
		case !s.unsorted:
			for i := 1; i < len(ks); i++ {
				if ks[i].less(ks[i-1]) {
					m.t.Fatalf("%s is an unsorted run at %d", name(), i)
				}
			}
		}
	}
	for slot := -1; slot <= cqBuckets; slot++ {
		shape(slot)
	}
}

// run interprets prog as (op, arg) byte pairs; see the cases.
func (m *qModel) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		a := float64(prog[i+1])
		switch prog[i] % 8 {
		case 0: // Fixed{1}: exactly on the horizon, in order
			m.pushNew(m.now + 1)
		case 1: // anywhere on the wheel, out of order
			m.pushNew(m.now + (a+1)/256)
		case 2: // the current or next slot
			m.pushNew(m.now + (a+1)/65536)
		case 3: // before the clock: clamped into the current slot
			m.pushNew(math.Max(0, m.now-a/1024))
		case 4: // drain a window
			limit := m.now + (a+1)/64
			for n := int(a)%8 + 1; n > 0 && m.popBefore(limit); n-- {
			}
		case 5:
			m.minT()
		case 6: // Spec rollback: re-push the latest pops, old seqs and all
			n := int(a)%4 + 1
			if n > len(m.popped) {
				n = len(m.popped)
			}
			for _, ev := range m.popped[len(m.popped)-n:] {
				m.push(ev)
			}
			m.popped = m.popped[:len(m.popped)-n]
		case 7: // far beyond the horizon, out of order; rarely, reset
			if a < 8 {
				m.reset()
			} else {
				m.pushNew(m.now + 1 + a/64)
			}
		}
	}
	for m.popBefore(maxEventTime) {
	}
}

// queueProgs are qModel programs, one per regime plus their mixtures; the
// fuzz target's seed corpus and TestEventQueueModel's fixed cases.
var queueProgs = map[string][]byte{
	// All of time t+1 pushed while time t drains: runs only, on the wheel
	// and in the overflow store.
	"fixed": {0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 4, 0, 0, 0, 4, 255, 0, 0, 0, 0, 4, 255, 4, 255},
	// In-order pushes into the clock's own tick (the straggler slot), half
	// drained, then an earlier event: the run→heap switch with head > 0.
	"run-to-heap": {2, 9, 2, 19, 2, 29, 2, 39, 2, 49, 2, 59, 4, 1, 3, 0, 2, 4, 3, 9, 4, 255},
	// Pushes behind the clock after it advanced past empty slots.
	"clamped": {1, 200, 1, 100, 4, 255, 3, 255, 3, 10, 5, 0, 3, 128, 4, 255, 4, 255},
	// Beyond-horizon pushes out of order (the overflow store heaps), their
	// migration as the clock advances, and a reset in between.
	"overflow": {7, 200, 7, 100, 7, 255, 0, 0, 7, 50, 5, 0, 4, 255, 4, 255, 7, 0, 7, 90, 0, 0, 4, 255, 4, 255, 4, 255},
	// A beyond-horizon run spanning two ticks must not move onto the wheel
	// as one slice: 1.0 and 1.5 queued, 1.0 popped, then 1.2 arrives.
	"overflow-run-two-ticks": {0, 0, 7, 32, 4, 64, 1, 50, 4, 255},
	// Out-of-order pushes into tick 11's bag, the clock reaching it (one
	// sort), two pops, then stragglers into the half-drained run: one below
	// its next key, one at the clock, one clamped from far below.
	"straggler-half-drained": {2, 127, 4, 0, 1, 10, 2, 191, 4, 0, 1, 9, 1, 9, 1, 9, 1, 9, 4, 9, 2, 10, 3, 0, 3, 200, 4, 255},
	// Clamps from ticks below the clock while the current run is half
	// read and a later bag waits: the straggler slot goes run→heap and
	// drains before the clock moves on.
	"clamp-below-clock": {1, 100, 1, 100, 1, 100, 4, 32, 1, 5, 3, 40, 3, 8, 3, 16, 5, 0, 4, 255, 4, 255},
	// Overflow keys over two ticks: the first migrates key by key, the
	// second's run is handed to its wheel slot with a consumed prefix, and
	// a direct push then lands below it, so the bag is flagged and sorted
	// on arrival.
	"overflow-into-bag": {2, 191, 4, 0, 0, 0, 7, 8, 2, 127, 4, 0, 1, 31, 4, 8, 1, 254, 1, 254, 4, 255},
	// Pop a window, roll part of it back, pop again.
	"rollback": {1, 10, 1, 20, 1, 30, 1, 40, 0, 0, 4, 255, 6, 2, 1, 5, 4, 255, 6, 3, 5, 0, 4, 255},
}

func TestEventQueueModel(t *testing.T) {
	for name, prog := range queueProgs {
		t.Run(name, func(t *testing.T) { (&qModel{t: t}).run(prog) })
	}
	// A long random mixture, enough to cross a slab chunk boundary, then the
	// same program again after reset: the second cycle must fit in the
	// first's chunks.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		prog := make([]byte, 6000)
		for i := 0; i < len(prog); i += 2 {
			// No resets, and pushes outnumber pops so the population grows.
			prog[i], prog[i+1] = []byte{0, 0, 1, 1, 1, 2, 2, 3, 4, 5, 6}[rng.Intn(11)], byte(rng.Intn(256))
		}
		m := &qModel{t: t}
		m.run(prog)
		chunks := len(m.q.chunks)
		if chunks < 2 {
			t.Fatalf("program peaked within %d chunk(s); want it to cross a chunk boundary", chunks)
		}
		m.reset()
		m.seq = 0
		m.run(prog)
		if len(m.q.chunks) != chunks {
			t.Fatalf("second cycle grew the slab %d→%d chunks", chunks, len(m.q.chunks))
		}
	})
}

// FuzzEventQueueVsSort lets the fuzzer interleave push / popBefore / minT /
// reset in every regime (see qModel.run) against the sorted-slice oracle.
func FuzzEventQueueVsSort(f *testing.F) {
	for _, prog := range queueProgs {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { (&qModel{t: t}).run(prog) })
}
