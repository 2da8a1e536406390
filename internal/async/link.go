package async

import (
	"repro/internal/graph"
	"repro/internal/wire"
)

// outbox holds the messages a node has queued on one directed link but not
// yet injected (the ack discipline allows one in-flight message per link).
// Scheduling follows the paper's two composition rules:
//
//   - Stage priority (Lemma 2.5): a message of a lower stage is always
//     injected before any message of a higher stage.
//   - Round-robin across protocols within a stage (Lemma 2.2 / Cor 2.3):
//     the link cycles fairly through the protocols that have pending
//     messages, simulating "one copy of the edge per subroutine" with a
//     k-factor slowdown for k contending subroutines.
//
// An outbox exists only while its link is contended: a send that finds the
// link idle injects at once (execCtx.send's fast path), the first send that
// finds it busy takes a record from the sending context's outboxSlab, and
// the pop that drains it hands the record back. The engine's per-link table
// is therefore one pointer, nil for every link not queueing right now, and
// the in-flight flag lives in the engine's dense []bool. Stages, protocol
// rotations and message queues are linked nodes from the same slab, so
// queueing a message allocates nothing once the slab has grown to the run's
// peak queue population. Protocols per stage are few (the synchronizer
// stack registers tens at most), so every list is scanned linearly.
type outbox struct {
	queued int
	stages *stageQueue // ascending by stage; a stage retires when it drains
}

type stageQueue struct {
	stage  int
	queued int
	// protos..last is the rotation in first-appearance order; a drained
	// protocol keeps its place until the whole stage retires. cur is the
	// round-robin cursor: the protocol the next pop tries first.
	protos, last, cur *protoFIFO
	up                *stageQueue // the next higher stage
}

// protoFIFO is one protocol's pending messages on one link.
type protoFIFO struct {
	proto      Proto
	head, tail *msgNode
	next       *protoFIFO // rotation order
}

type msgNode struct {
	m    Msg
	next *msgNode
}

func (o *outbox) push(sl *outboxSlab, m Msg) {
	o.queued++
	at := &o.stages
	for *at != nil && (*at).stage < m.Stage {
		at = &(*at).up
	}
	sq := *at
	if sq == nil || sq.stage != m.Stage {
		sq = sl.stages.get()
		sq.stage, sq.up = m.Stage, *at
		*at = sq
	}
	sq.queued++
	pf := sq.protos
	for pf != nil && pf.proto != m.Proto {
		pf = pf.next
	}
	if pf == nil {
		pf = sq.addProto(sl, m.Proto)
	}
	pf.append(sl, m)
}

// addProto appends p to the stage's rotation. A first protocol is also
// where the cursor starts.
func (sq *stageQueue) addProto(sl *outboxSlab, p Proto) *protoFIFO {
	pf := sl.protos.get()
	pf.proto = p
	if sq.last == nil {
		sq.protos, sq.cur = pf, pf
	} else {
		sq.last.next = pf
	}
	sq.last = pf
	return pf
}

func (pf *protoFIFO) append(sl *outboxSlab, m Msg) {
	mn := sl.msgs.get()
	mn.m = m
	if pf.tail == nil {
		pf.head = mn
	} else {
		pf.tail.next = mn
	}
	pf.tail = mn
}

// pop removes and returns the next message per the scheduling discipline.
// The second return is false when the outbox is empty.
func (o *outbox) pop(sl *outboxSlab) (Msg, bool) {
	// Only a restored frame can hold an empty stage; a live one retires on
	// its last pop.
	for o.stages != nil && o.stages.queued == 0 {
		o.retireFront(sl)
	}
	sq := o.stages
	if sq == nil {
		return Msg{}, false
	}
	m := sq.pop(sl)
	o.queued--
	if sq.queued == 0 {
		o.retireFront(sl)
	}
	return m, true
}

// free hands a drained outbox back to the slab, with any stage a restored
// frame left in it.
func (o *outbox) free(sl *outboxSlab) {
	for o.stages != nil {
		o.retireFront(sl)
	}
	sl.boxes.put(o)
}

// retireFront returns the front stage and its rotation to the slab. Its
// protocols are drained: a stage retires only when it holds no message.
func (o *outbox) retireFront(sl *outboxSlab) {
	sq := o.stages
	o.stages = sq.up
	for pf := sq.protos; pf != nil; {
		next := pf.next
		sl.protos.put(pf)
		pf = next
	}
	sl.stages.put(sq)
}

// pop returns the next message of a non-empty stage: the first protocol at
// or after the cursor that has one, cycling; the cursor moves past it.
func (sq *stageQueue) pop(sl *outboxSlab) Msg {
	pf := sq.cur
	for pf.head == nil {
		if pf = pf.next; pf == nil {
			pf = sq.protos
		}
	}
	mn := pf.head
	if pf.head = mn.next; pf.head == nil {
		pf.tail = nil
	}
	if sq.cur = pf.next; sq.cur == nil {
		sq.cur = sq.protos
	}
	sq.queued--
	m := mn.m
	sl.msgs.put(mn)
	return m
}

// code codes the outbox's scheduling state as a snapshot carries it: the
// stages ascending, each with its cursor position, its rotation and every
// protocol's pending bodies in FIFO order. Loading into an empty outbox
// rebuilds exactly this from sl, drained rotation slots included, because
// the rotation's first-appearance order decides future injection order;
// unless keep is set it skips the bodies (a link another engine owns).
func (o *outbox) code(c *wire.Coder, sl *outboxSlab, keep bool) {
	n := 0
	for sq := o.stages; sq != nil; sq = sq.up {
		n++
	}
	at, prev := &o.stages, (*stageQueue)(nil)
	for si, n := 0, c.Count(n); si < n && !c.Failed(); si++ {
		if c.Loading() {
			*at = sl.stages.get()
		}
		sq := *at
		cur, np := uint32(0), 0
		for pf := sq.protos; pf != nil; pf = pf.next {
			if pf == sq.cur {
				cur = uint32(np)
			}
			np++
		}
		c.Int(&sq.stage)
		c.U32(&cur)
		np = c.Count(np)
		if c.Loading() && prev != nil && sq.stage <= prev.stage {
			c.Fail("outbox stages out of order (%d after %d)", sq.stage, prev.stage)
		} else if c.Loading() && (int(cur) >= max(np, 1)) {
			c.Fail("outbox stage %d rotation cursor %d outside %d protos", sq.stage, cur, np)
		}
		pf := sq.protos
		for pi := 0; pi < np && !c.Failed(); pi, pf = pi+1, pf.next {
			if c.Loading() {
				if pf = sq.addProto(sl, 0); pi == int(cur) {
					sq.cur = pf
				}
			}
			if wire.ID(c, &pf.proto); c.Loading() && (pf.proto < 0 || pf.proto > maxProto) {
				c.Fail("outbox stage %d proto %d outside [0, %d]", sq.stage, pf.proto, maxProto)
			}
			k := 0
			for mn := pf.head; mn != nil; mn = mn.next {
				k++
			}
			mn := pf.head
			for mi, k := 0, c.Count(k); mi < k && !c.Failed(); mi++ {
				switch {
				case !c.Loading():
					c.Body(&mn.m.Body)
					mn = mn.next
				case !keep:
					c.SkipBody()
				default:
					m := Msg{Proto: pf.proto, Stage: sq.stage}
					if c.Body(&m.Body); !c.Failed() {
						pf.append(sl, m)
						sq.queued++
						o.queued++
					}
				}
			}
		}
		at, prev = &sq.up, sq
	}
}

// queue appends m to link l's outbox, taking a record if the link has none.
func (sl *outboxSlab) queue(boxes []*outbox, l graph.LinkID, m Msg) {
	ob := boxes[l]
	if ob == nil {
		ob = sl.boxes.get()
		boxes[l] = ob
	}
	ob.push(sl, m)
}

// next pops link l's next queued message. A link with nothing queued has no
// outbox and returns at once; the pop that drains one hands it back.
func (sl *outboxSlab) next(boxes []*outbox, l graph.LinkID) (Msg, bool) {
	ob := boxes[l]
	if ob == nil {
		return Msg{}, false
	}
	m, ok := ob.pop(sl)
	if ob.queued == 0 {
		ob.free(sl)
		boxes[l] = nil
	}
	return m, ok
}

// outboxSlab carves one execution context's outbox records and queue nodes,
// so the parallel workers never share one. Nodes a context frees join its
// own free lists whichever context carved them (a queue built during Init
// drains in a worker); node ownership keeps every link, and so every record
// and node in use, private to one context at a time. Reset rewinds the
// pools and keeps their chunks.
type outboxSlab struct {
	boxes  pool[outbox]
	stages pool[stageQueue]
	protos pool[protoFIFO]
	msgs   pool[msgNode]
}

func (sl *outboxSlab) reset() {
	sl.boxes.reset()
	sl.stages.reset()
	sl.protos.reset()
	sl.msgs.reset()
}

// pool hands out zeroed T values from chunks carved front to back, reusing
// freed ones first. Chunks start small and double, so a context that never
// queues a message allocates none and one that does allocates a handful.
type pool[T any] struct {
	chunks  [][]T
	ci, off int // next unused slot: chunks[ci][off]
	free    []*T
}

const (
	poolChunk     = 32
	poolDoublings = 6
)

func (p *pool[T]) get() *T {
	var x *T
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if p.ci == len(p.chunks) {
			p.chunks = append(p.chunks, make([]T, poolChunk<<min(p.ci, poolDoublings)))
		}
		c := p.chunks[p.ci]
		x = &c[p.off]
		if p.off++; p.off == len(c) {
			p.ci, p.off = p.ci+1, 0
		}
	}
	var zero T
	*x = zero
	return x
}

func (p *pool[T]) put(x *T) { p.free = append(p.free, x) }

// reset forgets every handed-out value; the chunks are carved again from
// the front.
func (p *pool[T]) reset() { p.ci, p.off, p.free = 0, 0, p.free[:0] }
