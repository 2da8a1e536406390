package async

// eventQueue is a bucketed calendar queue specialized for this simulator:
// all delays lie in (0,1], so every pending event's timestamp is within one
// normalized time unit of the clock. The unit is split into cqBuckets
// ticks; a rotating wheel of cqBuckets slots holds the events of the next
// full unit, one tick per slot. Events at or beyond the wheel horizon wait
// in one more slot, the overflow store, and migrate onto the wheel as the
// clock advances — the common case, not an edge case: a delay of exactly 1
// (Fixed{1}, the adversary the paper's time bounds are stated against)
// lands at tick cur+cqBuckets, one past the wheel.
//
// The 96-byte event payloads live in a slab of fixed-size chunks and never
// move while queued; slots order 24-byte keys {t, seq, idx} into it, so a
// sift or a migration moves keys only. Chunks (not one doubling slice) keep
// retained memory at peak occupancy and payload addresses stable, which
// lets the executors process a popped event in place (see popBefore).
//
// A slot is one key slice in one of two shapes (see cqSlot): a sorted run
// read through a head cursor while pushes arrive in (t, seq) order — the
// only shape Fixed ever produces — or, from the first out-of-order push
// until it next drains, a binary min-heap, hand-rolled because
// container/heap boxes every pushed element into an `any`.
//
// Pop order is exactly the seed heap's (t, seq) order: tick(t) is a
// monotone function of t, slots are drained in tick order, and each slot
// orders its events by (t, seq).
type eventQueue struct {
	chunks []*[cqChunk]event
	freed  []uint32 // released slab indices, reused before fresh ones
	fresh  uint32   // slab indices below this were handed out since reset
	held   uint32   // 1 + the slab index of the last popped event; 0: none
	size   int
	cur    int64 // current tick; all queued events have tick >= cur
	// The wheel, then the overflow store. Last, so that in a []eventQueue
	// the words a draining worker writes (the scalars above, the current
	// slot's cursor) border only a neighbour's overflow store, which no
	// one touches while workers drain.
	slots [cqBuckets + 1]cqSlot
}

// cqBuckets is the wheel resolution (a power of two so the slot index is a
// mask). 256 slots over the unit delay range keeps slots near-singleton
// for diffuse adversaries while costing 10KB of slot headers.
const cqBuckets = 256

// cqChunk is the slab chunk size in events (24KB per chunk).
const cqChunk = 256

func cqTick(t float64) int64 { return int64(t * cqBuckets) }

// evKey orders one queued event; idx locates its payload in the slab.
type evKey struct {
	t   float64
	seq uint64
	idx uint32
}

func (a evKey) less(b evKey) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

// cqSlot holds the keys of one tick (or of everything past the horizon).
// While !heaped, keys[head:] is a sorted run; once heaped, head is 0 and
// keys is a binary min-heap. Either way keys[head] is the minimum.
type cqSlot struct {
	keys   []evKey
	head   int
	heaped bool
}

func (s *cqSlot) len() int { return len(s.keys) - s.head }

func (s *cqSlot) min() evKey { return s.keys[s.head] }

func (s *cqSlot) push(k evKey) {
	n := len(s.keys)
	if !s.heaped {
		inOrder := n == s.head || !k.less(s.keys[n-1])
		if !inOrder || (s.head > 0 && n == cap(s.keys)) {
			// Drop the consumed prefix: before heaping, because a sorted
			// array is already a valid min-heap; before growing, so a run
			// that never quite drains cannot leak it.
			n = copy(s.keys, s.keys[s.head:])
			s.keys, s.head, s.heaped = s.keys[:n], 0, !inOrder
		}
	}
	s.keys = append(s.keys, k)
	if !s.heaped {
		return
	}
	h := s.keys
	for i := n; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the minimum key; a slot that drains is a run again.
func (s *cqSlot) pop() evKey {
	top := s.min()
	if !s.heaped {
		if s.head++; s.head == len(s.keys) {
			s.keys, s.head = s.keys[:0], 0
		}
		return top
	}
	n := len(s.keys) - 1
	s.keys[0] = s.keys[n]
	h := s.keys[:n]
	s.keys, s.heaped = h, n > 0
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].less(h[least]) {
			least = l
		}
		if r < n && h[r].less(h[least]) {
			least = r
		}
		if least == i {
			return top
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (s *cqSlot) reset() { s.keys, s.head, s.heaped = s.keys[:0], 0, false }

func (q *eventQueue) at(idx uint32) *event { return &q.chunks[idx/cqChunk][idx%cqChunk] }

// push copies *ev into the slab and queues it under its (t, seq).
func (q *eventQueue) push(ev *event) {
	idx := q.fresh
	if n := len(q.freed); n > 0 {
		idx, q.freed = q.freed[n-1], q.freed[:n-1]
	} else {
		if int(idx) == len(q.chunks)*cqChunk {
			q.chunks = append(q.chunks, new([cqChunk]event))
		}
		q.fresh++
	}
	*q.at(idx) = *ev
	q.size++
	tick := cqTick(ev.t)
	if tick < q.cur {
		// Floating-point underflow of tick vs. the clock's own tick; the
		// event still pops in (t,seq) order from the current slot.
		tick = q.cur
	}
	slot := cqBuckets // beyond the horizon: the overflow store
	if tick < q.cur+cqBuckets {
		slot = int(tick & (cqBuckets - 1))
	}
	q.slots[slot].push(evKey{t: ev.t, seq: ev.seq, idx: idx})
}

func (q *eventQueue) empty() bool { return q.size == 0 }

// pop removes the earliest event by (t, seq); see popBefore for the
// returned cell's lifetime.
func (q *eventQueue) pop() *event {
	if q.size == 0 {
		panic("async: pop from empty event queue")
	}
	return q.popBefore(maxEventTime)
}

// maxEventTime (2^64) exceeds every reachable event timestamp — the event
// cap bounds runs to ~2^34 time units — so popBefore(maxEventTime) never
// refuses a queued event.
const maxEventTime = float64(1<<63) * 2

// advance moves the clock to the next non-empty slot. The caller must hold
// size > 0. It returns the slot, which is non-empty.
func (q *eventQueue) advance() *cqSlot {
	o := &q.slots[cqBuckets]
	for {
		slot := &q.slots[q.cur&(cqBuckets-1)]
		if slot.len() > 0 {
			return slot
		}
		if q.size == o.len() {
			// Nothing on the wheel: jump straight to the first overflow tick.
			q.cur = cqTick(o.min().t)
		} else {
			q.cur++
		}
		// Overflow events that entered the horizon move onto the wheel.
		// Their ticks are beyond the clock, so nothing is clamped, and a
		// slot they enter is empty: its last tenant, 256 ticks earlier, is
		// behind the clock. A run of one tick — every time unit of a
		// Fixed{1} run — therefore changes hands as a slice, not key by key.
		if !o.heaped && o.len() > 0 {
			tick := cqTick(o.min().t)
			slot := &q.slots[tick&(cqBuckets-1)]
			if tick < q.cur+cqBuckets && tick == cqTick(o.keys[len(o.keys)-1].t) {
				*slot, *o = *o, *slot
			}
		}
		for o.len() > 0 {
			tick := cqTick(o.min().t)
			if tick >= q.cur+cqBuckets {
				break
			}
			q.slots[tick&(cqBuckets-1)].push(o.pop())
		}
	}
}

// popBefore removes the earliest event by (t, seq) if its timestamp is
// strictly below limit and returns its slab cell; otherwise it leaves the
// queue intact and returns nil. The cell is the caller's to read in place
// until its next pop from this queue, which is what frees it: pushes in
// between neither move nor reuse it. The bounded-lag executor drains each
// shard's window [wStart, wStart+lookahead) with it.
//
// The earliest event is always in the first non-empty slot at or after cur:
// tick(t) is monotone in t, slots hold only events of their own tick (or
// events clamped INTO the then-current slot, which are even earlier), and
// every overflow event's timestamp lies beyond the whole wheel horizon.
func (q *eventQueue) popBefore(limit float64) *event {
	if q.size == 0 {
		return nil
	}
	slot := q.advance()
	if slot.min().t >= limit {
		return nil
	}
	q.size--
	if q.held != 0 {
		q.freed = append(q.freed, q.held-1)
	}
	idx := slot.pop().idx
	q.held = idx + 1
	return q.at(idx)
}

// minT reports the earliest queued timestamp without removing the event.
// It advances the clock past empty slots exactly as popBefore would, so a
// minT/popBefore pair per window does the slot walk only once.
func (q *eventQueue) minT() (float64, bool) {
	if q.size == 0 {
		return 0, false
	}
	return q.advance().min().t, true
}

// reset empties the queue in place, keeping every slot's capacity and
// every slab chunk for the next run. Events are pointer-free values, so
// the retained chunks pin nothing.
func (q *eventQueue) reset() {
	for i := range q.slots {
		q.slots[i].reset()
	}
	q.freed = q.freed[:0]
	q.fresh, q.held, q.size, q.cur = 0, 0, 0, 0
}

// forEach visits every queued event in unspecified order (snapshot
// serialization; restore re-pushes, and pop order depends only on the
// events' own (t, seq) keys, not on insertion order).
func (q *eventQueue) forEach(fn func(*event)) {
	for i := range q.slots {
		s := &q.slots[i]
		for _, k := range s.keys[s.head:] {
			fn(q.at(k.idx))
		}
	}
}

func evLess(a, b event) bool { return evKey{t: a.t, seq: a.seq}.less(evKey{t: b.t, seq: b.seq}) }
