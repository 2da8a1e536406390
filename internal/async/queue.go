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
// A queued event is split in two. Its 72-byte cell (evCell: everything but
// t and seq) lives in a slab of fixed-size chunks and never moves while
// queued; slots order 24-byte keys {t, seq, idx} into it, so a sort, a sift
// or a migration moves keys only. Chunks (not one doubling slice) keep
// retained memory at peak occupancy and cell addresses stable, which lets
// the executors read a popped cell in place beside its key (see
// popBefore). Free cells form a list threaded through their own stage
// field, so the slab is the queue's whole payload store.
//
// A slot is one key slice (see cqSlot) in one of three shapes:
//   - A wheel slot ahead of the clock is a bag: pushes append, and a flag
//     records whether one arrived out of (t, seq) order. Under a diffuse
//     adversary a slot collects thousands of keys before the clock reads
//     any of them, so advance sorts a flagged bag once, when the clock
//     reaches its tick, and from then on reads it as a sorted run through
//     a head cursor. Under Fixed the flag never rises and nothing sorts.
//   - A push at or before the clock's own tick cannot join the current
//     slot's run without reordering it, so it goes to the straggler slot
//     instead. The straggler slot and the overflow store are sorted runs
//     while their pushes arrive in (t, seq) order and, from the first
//     out-of-order push until they next drain, binary min-heaps,
//     hand-rolled because container/heap boxes every element into an
//     `any`. Stragglers are the few events whose delay ends inside the
//     current tick, so their heap stays small and a push costs O(log n)
//     even when every delay is that short.
//
// Pop order is exactly the seed heap's (t, seq) order: tick(t) is a
// monotone function of t, wheel slots are reached in tick order, the clock
// does not leave a tick while the straggler slot holds events, and the
// next event is the smaller of the straggler slot's and the current slot's
// minimum.
type eventQueue struct {
	chunks []*[cqChunk]evCell
	free   uint32 // 1 + the first free slab index, reused before fresh ones; 0: none
	fresh  uint32 // slab indices below this were handed out since reset
	held   uint32 // 1 + the slab index of the last popped event; 0: none
	size   int
	cur    int64  // current tick; wheel and overflow events have tick >= cur
	late   cqSlot // the straggler slot: events with tick <= cur when pushed
	// The wheel, then the overflow store. Last, so that in a []eventQueue
	// the words a draining worker writes (the scalars and the straggler
	// slot above, the current slot's cursor) border only a neighbour's
	// overflow store, which no one touches while workers drain.
	slots [cqBuckets + 1]cqSlot
}

// cqBuckets is the wheel resolution (a power of two so the slot index is a
// mask): 256 ticks per unit delay, 10KB of slot headers. Under a diffuse
// adversary a slot holds n/256 keys, which is why they are sorted once
// per tick rather than kept in order per push.
const cqBuckets = 256

// cqChunk is the slab chunk size in cells (18KB per chunk).
const cqChunk = 256

func cqTick(t float64) int64 { return int64(t * cqBuckets) }

// evKey orders one queued event; idx locates its cell in the slab.
type evKey struct {
	t   float64
	seq uint64
	idx uint32
}

func (a evKey) less(b evKey) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

// cqSlot holds the keys of one tick, of the stragglers, or of everything
// past the horizon. A wheel slot is a bag (keys[head:] in push order,
// unsorted if some push came out of order) until the clock reaches it, and
// a sorted run keys[head:] after. The straggler slot and the overflow
// store take pushes through push: a sorted run while !heaped; once heaped,
// head is 0 and keys is a binary min-heap. In a run or a heap, keys[head]
// is the minimum.
type cqSlot struct {
	keys     []evKey
	head     int
	heaped   bool
	unsorted bool
}

func (s *cqSlot) len() int { return len(s.keys) - s.head }

func (s *cqSlot) min() evKey { return s.keys[s.head] }

// add appends k to a bag. A run handed over from the overflow store may
// still carry its consumed prefix; the bag keeps it until it drains,
// which every wheel slot does before the clock leaves its tick.
func (s *cqSlot) add(k evKey) {
	if n := len(s.keys); n > s.head && k.less(s.keys[n-1]) {
		s.unsorted = true
	}
	s.keys = append(s.keys, k)
}

// sort makes a bag a sorted run.
func (s *cqSlot) sort() {
	if s.unsorted {
		sortKeys(s.keys[s.head:])
		s.unsorted = false
	}
}

// push adds k to a run, or to the heap the run becomes at the first
// out-of-order key.
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

// pop removes the minimum key of a run or a heap; a slot that drains is
// an empty run again.
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
	s.keys, s.heaped = s.keys[:n], n > 0
	siftDown(s.keys, 0)
	return top
}

func (s *cqSlot) reset() { s.keys, s.head, s.heaped, s.unsorted = s.keys[:0], 0, false, false }

// siftDown moves h[i] down until h is a binary min-heap again below i.
func siftDown(h []evKey, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].less(h[least]) {
			least = l
		}
		if r < n && h[r].less(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// sortKeys sorts keys by (t, seq). It is typed rather than slices.SortFunc
// because the per-compare indirect call was half the sort's cost on a
// dense wheel.
func sortKeys(keys []evKey) {
	depth := 0
	for n := len(keys); n > 0; n >>= 1 {
		depth += 2
	}
	quickSortKeys(keys, depth)
}

// quickSortKeys is an introsort: median-of-three quicksort down to 16
// keys, insertion sort below, and heapsort once depth partitions have not
// finished a range, so adversarial keys cannot make it quadratic.
func quickSortKeys(a []evKey, depth int) {
	for len(a) > 16 {
		if depth == 0 {
			heapSortKeys(a)
			return
		}
		depth--
		p := partitionKeys(a)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if p < len(a)-p {
			quickSortKeys(a[:p], depth)
			a = a[p+1:]
		} else {
			quickSortKeys(a[p+1:], depth)
			a = a[:p]
		}
	}
	for i := 1; i < len(a); i++ {
		k, j := a[i], i
		for ; j > 0 && k.less(a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = k
	}
}

// partitionKeys partitions a (len >= 3) around the median of its first,
// middle and last keys and returns the pivot's final index: a[:p] <= a[p]
// <= a[p+1:].
func partitionKeys(a []evKey) int {
	n, m := len(a), len(a)/2
	if a[m].less(a[0]) {
		a[0], a[m] = a[m], a[0]
	}
	if a[n-1].less(a[m]) {
		a[m], a[n-1] = a[n-1], a[m]
		if a[m].less(a[0]) {
			a[0], a[m] = a[m], a[0]
		}
	}
	// a[0] <= pivot <= a[n-1] bound both scans; the pivot waits at n-2.
	a[m], a[n-2] = a[n-2], a[m]
	p := a[n-2]
	i, j := 0, n-2
	for {
		for i++; a[i].less(p); i++ {
		}
		for j--; p.less(a[j]); j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[i], a[n-2] = a[n-2], a[i]
	return i
}

// heapSortKeys sorts a through siftDown: the min-heap yields a descending
// array, which is then reversed.
func heapSortKeys(a []evKey) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDown(a, i)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a[:end], 0)
	}
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

func (q *eventQueue) at(idx uint32) *evCell { return &q.chunks[idx/cqChunk][idx%cqChunk] }

// push copies ev's cell into the slab and queues it under its (t, seq).
func (q *eventQueue) push(ev *event) {
	idx := q.free - 1
	if q.free != 0 {
		q.free = uint32(q.at(idx).stage)
	} else {
		if idx = q.fresh; int(idx) == len(q.chunks)*cqChunk {
			q.chunks = append(q.chunks, new([cqChunk]evCell))
		}
		q.fresh++
	}
	*q.at(idx) = ev.evCell
	q.size++
	k := evKey{t: ev.t, seq: ev.seq, idx: idx}
	switch tick := cqTick(ev.t); {
	case tick <= q.cur:
		// The clock's own tick, or an earlier one (floating-point
		// underflow of tick vs. the clock, or a re-pushed pop): the
		// current slot is a run being read, so the key waits beside it.
		q.late.push(k)
	case tick < q.cur+cqBuckets:
		q.slots[tick&(cqBuckets-1)].add(k)
	default: // beyond the horizon
		q.slots[cqBuckets].push(k)
	}
}

func (q *eventQueue) empty() bool { return q.size == 0 }

// pop removes the earliest event by (t, seq); see popBefore for the
// returned cell's lifetime.
func (q *eventQueue) pop() (evKey, *evCell) {
	if q.size == 0 {
		panic("async: pop from empty event queue")
	}
	return q.popBefore(maxEventTime)
}

// maxEventTime (2^64) exceeds every reachable event timestamp — the event
// cap bounds runs to ~2^34 time units — so popBefore(maxEventTime) never
// refuses a queued event.
const maxEventTime = float64(1<<63) * 2

// advance moves the clock to the first tick that holds an event, sorting
// that tick's bag on arrival, and returns the slot holding the earliest
// event: the current slot or the straggler slot. The caller must hold
// size > 0.
func (q *eventQueue) advance() *cqSlot {
	o := &q.slots[cqBuckets]
	for {
		slot := &q.slots[q.cur&(cqBuckets-1)]
		if slot.len() > 0 {
			slot.sort()
			if q.late.len() > 0 && q.late.min().less(slot.min()) {
				return &q.late
			}
			return slot
		}
		if q.late.len() > 0 {
			return &q.late
		}
		if q.size == o.len() {
			// Nothing on the wheel: jump straight to the first overflow tick.
			q.cur = cqTick(o.min().t)
		} else {
			q.cur++
		}
		// Overflow events that entered the horizon move onto the wheel.
		// Their ticks are at or beyond the clock, so nothing is clamped, and
		// a slot they enter is empty: its last tenant, 256 ticks earlier, is
		// behind the clock. A run of one tick — every time unit of a
		// Fixed{1} run — therefore changes hands as a slice, not key by key,
		// and arrives sorted.
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
			q.slots[tick&(cqBuckets-1)].add(o.pop())
		}
	}
}

// popBefore removes the earliest event by (t, seq) if its timestamp is
// strictly below limit and returns its key and slab cell; otherwise it
// leaves the queue intact and returns a nil cell. The cell is the caller's
// to read in place until its next pop from this queue, which is what frees
// it: pushes in between neither move nor reuse it. The bounded-lag
// executor drains each shard's window [wStart, wStart+lookahead) with it.
func (q *eventQueue) popBefore(limit float64) (evKey, *evCell) {
	if q.size == 0 {
		return evKey{}, nil
	}
	slot := q.advance()
	if slot.min().t >= limit {
		return evKey{}, nil
	}
	q.size--
	if q.held != 0 {
		q.at(q.held - 1).stage = int(q.free)
		q.free = q.held
	}
	k := slot.pop()
	q.held = k.idx + 1
	return k, q.at(k.idx)
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
// every slab chunk for the next run. Cells are pointer-free values, so
// the retained chunks pin nothing.
func (q *eventQueue) reset() {
	q.late.reset()
	for i := range q.slots {
		q.slots[i].reset()
	}
	q.free, q.fresh, q.held, q.size, q.cur = 0, 0, 0, 0, 0
}

// forEach visits every queued event in unspecified order (snapshot
// serialization; restore re-pushes, and pop order depends only on the
// events' own (t, seq) keys, not on insertion order).
func (q *eventQueue) forEach(fn func(evKey, *evCell)) {
	for _, k := range q.late.keys[q.late.head:] {
		fn(k, q.at(k.idx))
	}
	for i := range q.slots {
		s := &q.slots[i]
		for _, k := range s.keys[s.head:] {
			fn(k, q.at(k.idx))
		}
	}
}

func evLess(a, b event) bool { return evKey{t: a.t, seq: a.seq}.less(evKey{t: b.t, seq: b.seq}) }
