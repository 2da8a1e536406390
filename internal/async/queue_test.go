package async

import (
	"math"
	"math/rand"
	"sort"
	"testing"

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
		ev := *q.pop()
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
		ev := *q.pop()
		if !first && evLess(ev, last) {
			t.Fatalf("out of order: {t:%g seq:%d} after {t:%g seq:%d}",
				ev.t, ev.seq, last.t, last.seq)
		}
		last, first = ev, false
	}
}

// BenchmarkEventQueuePushPop prices the queue's three regimes separately,
// each as a hold pattern (one push per pop over a standing population):
// inorder is Fixed's shape, every push in (t, seq) order into the slot
// behind the one draining; random spreads SeededRandom-style delays over
// every slot, out of order; horizon is Fixed{1}'s shape, every push at
// cur+cqBuckets, through the overflow store and its migration.
func BenchmarkEventQueuePushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 1024)
	for i := range random {
		random[i] = rng.Float64()*0.999 + 0.001
	}
	for _, bc := range []struct {
		name   string
		delays []float64
	}{
		{"inorder", []float64{1.0 / cqBuckets}},
		{"random", random},
		{"horizon", []float64{1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var q eventQueue
			ev := event{kind: evDeliver}
			mask := len(bc.delays) - 1 // lengths are powers of two
			for i := 0; i < 512; i++ {
				ev.t, ev.seq = bc.delays[i&mask], uint64(i)
				q.push(&ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.t, ev.seq = q.pop().t+bc.delays[i&mask], uint64(512+i)
				q.push(&ev)
			}
		})
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
		ev := q.popBefore(limit)
		if ev == nil {
			break
		}
		before = append(before, *ev)
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
		ev := *q.pop()
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
		ev := *q.pop()
		if ev.t < last {
			t.Fatalf("out of order after reset: %g after %g", ev.t, last)
		}
		last = ev.t
	}
}

// TestSlotRunToHeap pins the slot's two shapes and the switch between
// them: in-order pushes keep a sorted run read through the head cursor; the
// first out-of-order push into a half-drained run compacts the unread tail
// to the front and heaps it; draining makes it a run again.
func TestSlotRunToHeap(t *testing.T) {
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

	// A run that never quite drains reuses its consumed prefix instead of
	// growing: the overflow store under staggered unit delays.
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

// pushNew queues a fresh event at time t whose payload echoes its key, so
// a crossed slab index shows up as a payload mismatch.
func (m *qModel) pushNew(t float64) {
	ev := event{t: t, seq: m.seq, kind: evDeliver,
		msg: Msg{Body: wire.Body{Kind: 1, A: int64(m.seq), B: int64(math.Float64bits(t))}}}
	m.seq++
	m.push(ev)
}

func (m *qModel) popBefore(limit float64) bool {
	ev := m.q.popBefore(limit)
	if len(m.oracle) == 0 || m.oracle[0].t >= limit {
		if ev != nil {
			m.t.Fatalf("popBefore(%g) = {t:%g seq:%d}, want none", limit, ev.t, ev.seq)
		}
		return false
	}
	if ev == nil || *ev != m.oracle[0] {
		m.t.Fatalf("popBefore(%g) = %+v, want %+v", limit, ev, m.oracle[0])
	}
	m.now = ev.t
	m.popped = append(m.popped, *ev)
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
// one place: queued once, on the free list once, or held as the latest pop.
func (m *qModel) check() {
	q := &m.q
	if q.size != len(m.oracle) || q.empty() != (len(m.oracle) == 0) {
		m.t.Fatalf("size %d (empty=%v), oracle holds %d", q.size, q.empty(), len(m.oracle))
	}
	visited := 0
	q.forEach(func(ev *event) {
		visited++
		if int64(ev.seq) != ev.msg.Body.A || int64(math.Float64bits(ev.t)) != ev.msg.Body.B {
			m.t.Fatalf("slab cell of {t:%g seq:%d} carries another event's payload %+v", ev.t, ev.seq, ev.msg.Body)
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
	for i := range q.slots {
		for _, k := range q.slots[i].keys[q.slots[i].head:] {
			claim(k.idx, "queued")
		}
	}
	for _, idx := range q.freed {
		claim(idx, "free list")
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
	// In-order pushes into one slot, half drained, then an earlier event:
	// the run→heap switch with head > 0.
	"run-to-heap": {2, 9, 2, 19, 2, 29, 2, 39, 2, 49, 2, 59, 4, 1, 3, 0, 2, 4, 3, 9, 4, 255},
	// Pushes behind the clock after it advanced past empty slots.
	"clamped": {1, 200, 1, 100, 4, 255, 3, 255, 3, 10, 5, 0, 3, 128, 4, 255, 4, 255},
	// Beyond-horizon pushes out of order (the overflow store heaps), their
	// migration as the clock advances, and a reset in between.
	"overflow": {7, 200, 7, 100, 7, 255, 0, 0, 7, 50, 5, 0, 4, 255, 4, 255, 7, 0, 7, 90, 0, 0, 4, 255, 4, 255, 4, 255},
	// A beyond-horizon run spanning two ticks must not move onto the wheel
	// as one slice: 1.0 and 1.5 queued, 1.0 popped, then 1.2 arrives.
	"overflow-run-two-ticks": {0, 0, 7, 32, 4, 64, 1, 50, 4, 255},
	// Pop a window, roll part of it back, pop again.
	"rollback": {1, 10, 1, 20, 1, 30, 1, 40, 0, 0, 4, 255, 6, 2, 1, 5, 4, 255, 6, 3, 5, 0, 4, 255},
}

func TestEventQueueModel(t *testing.T) {
	for name, prog := range queueProgs {
		t.Run(name, func(t *testing.T) { (&qModel{t: t}).run(prog) })
	}
	// A long random mixture, enough to cross a slab chunk boundary, then the
	// same program again after reset: the second cycle must fit in the
	// first's slab and free list.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		prog := make([]byte, 6000)
		for i := 0; i < len(prog); i += 2 {
			// No resets, and pushes outnumber pops so the population grows.
			prog[i], prog[i+1] = []byte{0, 0, 1, 1, 1, 2, 2, 3, 4, 5, 6}[rng.Intn(11)], byte(rng.Intn(256))
		}
		m := &qModel{t: t}
		m.run(prog)
		chunks, freeCap := len(m.q.chunks), cap(m.q.freed)
		if chunks < 2 {
			t.Fatalf("program peaked within %d chunk(s); want it to cross a chunk boundary", chunks)
		}
		m.reset()
		m.seq = 0
		m.run(prog)
		if len(m.q.chunks) != chunks || cap(m.q.freed) != freeCap {
			t.Fatalf("second cycle grew the slab %d→%d chunks, free list cap %d→%d",
				chunks, len(m.q.chunks), freeCap, cap(m.q.freed))
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
