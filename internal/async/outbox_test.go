package async

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/wire"
)

// refLink is a deliberately naive model of one directed link's queue,
// written from the paper's composition rules rather than from link.go:
//
//   - Lemma 2.5 (sequential composition): a message of a lower stage always
//     leaves before any message of a higher stage.
//   - Lemma 2.2 / Corollary 2.3 (parallel composition): within a stage the
//     link serves the protocols that have messages round-robin — one message
//     each in turn, in the order they first appeared — as if each protocol
//     had its own copy of the edge.
//
// A stage exists while it holds messages; once its last message leaves, it
// is forgotten, and a later message of that stage starts a new rotation.
type refLink struct {
	stages map[int]*refStage
}

type refStage struct {
	fifo  map[Proto][]Msg
	order []Proto // the rotation, in order of first appearance
	turn  int     // index into order of the protocol served next
}

func (r *refLink) push(m Msg) {
	if r.stages == nil {
		r.stages = make(map[int]*refStage)
	}
	st := r.stages[m.Stage]
	if st == nil {
		st = &refStage{fifo: make(map[Proto][]Msg)}
		r.stages[m.Stage] = st
	}
	if _, seen := st.fifo[m.Proto]; !seen {
		st.order = append(st.order, m.Proto)
	}
	st.fifo[m.Proto] = append(st.fifo[m.Proto], m)
}

// stageKeys returns the live stages, lowest first.
func (r *refLink) stageKeys() []int {
	keys := make([]int, 0, len(r.stages))
	for k := range r.stages {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (r *refLink) pop() (Msg, bool) {
	keys := r.stageKeys()
	if len(keys) == 0 {
		return Msg{}, false
	}
	st := r.stages[keys[0]]
	for i := 0; i < len(st.order); i++ {
		k := (st.turn + i) % len(st.order)
		p := st.order[k]
		if q := st.fifo[p]; len(q) > 0 {
			st.fifo[p] = q[1:]
			st.turn = (k + 1) % len(st.order)
			if st.empty() {
				delete(r.stages, keys[0])
			}
			return q[0], true
		}
	}
	panic("refLink: a live stage with no message")
}

func (st *refStage) empty() bool {
	for _, q := range st.fifo {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// encode writes the model's state in the snapshot's link-record layout.
func (r *refLink) encode(e *wire.Enc) {
	keys := r.stageKeys()
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		st := r.stages[k]
		e.I64(int64(k))
		e.U32(uint32(st.turn))
		e.U32(uint32(len(st.order)))
		for _, p := range st.order {
			e.I32(int32(p))
			e.U32(uint32(len(st.fifo[p])))
			for _, m := range st.fifo[p] {
				e.Body(m.Body)
			}
		}
	}
}

// outboxPair drives the engine's outbox plane — one link's slot in a boxes
// table, served by the slab the way execCtx.send and dispatch serve it —
// next to the model.
type outboxPair struct {
	t     testing.TB
	sl    outboxSlab
	boxes [1]*outbox
	ref   refLink
	seq   int64
}

func (p *outboxPair) push(proto Proto, stage int) {
	p.seq++
	m := Msg{Proto: proto, Stage: stage, Body: wire.Body{Kind: 1, A: p.seq}}
	p.sl.queue(p.boxes[:], 0, m)
	p.ref.push(m)
}

func (p *outboxPair) pop() {
	p.t.Helper()
	got, gok := p.sl.next(p.boxes[:], 0)
	want, wok := p.ref.pop()
	if got != want || gok != wok {
		p.t.Fatalf("pop: outbox gave %+v (%v), model %+v (%v)", got, gok, want, wok)
	}
}

// reset is Sim.Reset's view of the link: the slot cleared, the slab rewound.
func (p *outboxPair) reset() {
	p.boxes[0] = nil
	p.sl.reset()
	p.ref = refLink{}
}

// check compares the rotation state a snapshot would write, and that the
// model's bytes load into an outbox that writes them back.
func (p *outboxPair) check() {
	p.t.Helper()
	var got, want, back wire.Enc
	if ob := p.boxes[0]; ob == nil {
		got.U32(0)
	} else {
		ob.code(got.Coder(), nil, false)
	}
	p.ref.encode(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		p.t.Fatalf("snapshot state differs from the model:\n got  %x\n want %x", got.Bytes(), want.Bytes())
	}
	var sl outboxSlab
	ob, d := sl.boxes.get(), wire.NewDec(want.Bytes(), nil)
	if ob.code(d.Coder(), &sl, true); d.Err() != nil || d.Remaining() != 0 {
		p.t.Fatalf("loading the model's state: %v, %d bytes left", d.Err(), d.Remaining())
	}
	if ob.code(back.Coder(), nil, false); !bytes.Equal(back.Bytes(), want.Bytes()) {
		p.t.Fatalf("loaded state writes back differently:\n got  %x\n want %x", back.Bytes(), want.Bytes())
	}
}

// run interprets ops as a push/pop/reset script: most bytes push onto one
// of four protocols and three stages, some pop, a few reset.
func (p *outboxPair) run(ops []byte) {
	for _, b := range ops {
		switch {
		case b < 160:
			p.push(Proto(b%4), int(b/4%3))
		case b < 250:
			p.pop()
		default:
			p.reset()
		}
		p.check()
	}
	for p.boxes[0] != nil {
		p.pop()
		p.check()
	}
	p.pop()
}

// TestOutboxModel checks the outbox against the naive model on scripted
// cases — a stage that drains and comes back, a protocol that drains and
// keeps its turn, a lower stage arriving behind a higher one — and on a
// long random script.
func TestOutboxModel(t *testing.T) {
	p := &outboxPair{t: t}
	p.push(1, 2)
	p.push(2, 2)
	p.push(1, 2)
	p.push(3, 0) // a lower stage overtakes the queue
	p.check()
	p.pop()      // stage 0: proto 3
	p.pop()      // stage 2: proto 1
	p.push(3, 2) // joins the rotation behind proto 2
	p.check()
	p.pop() // proto 2
	p.pop() // proto 3
	p.pop() // proto 1: stage 2 drains and is forgotten
	p.check()
	p.push(2, 2) // a new rotation starts with proto 2
	p.push(1, 2)
	p.push(2, 2)
	p.pop()
	p.pop()
	p.push(1, 2) // proto 1 drained but keeps its place behind proto 2
	p.check()
	p.reset()
	p.check()

	script := make([]byte, 20000)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range script {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		script[i] = byte(x)
	}
	p.run(script)
}

// TestOutboxLoadRefusesWideProto: an outbox record whose proto a queued
// event cannot hold fails the load; it would be injected as one.
func TestOutboxLoadRefusesWideProto(t *testing.T) {
	var sl outboxSlab
	var boxes [1]*outbox
	sl.queue(boxes[:], 0, Msg{Proto: maxProto + 1, Stage: 2, Body: wire.Tag(1)})
	var e wire.Enc
	boxes[0].code(e.Coder(), nil, false)
	var into outboxSlab
	d := wire.NewDec(e.Bytes(), nil)
	into.boxes.get().code(d.Coder(), &into, true)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "stage 2 proto 65536 outside [0, 65535]") {
		t.Fatalf("loading an outbox with proto %d: %v", maxProto+1, err)
	}
}

// FuzzOutboxVsReference drives the outbox and the model through the same
// fuzzed push/pop/reset script and requires the same pops and the same
// snapshot state after every step.
func FuzzOutboxVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 200, 4, 5, 200, 255, 9, 200})
	f.Add([]byte{8, 4, 0, 1, 5, 9, 200, 1, 200, 200, 2, 200, 200, 200})
	f.Add(bytes.Repeat([]byte{3, 7, 11, 200}, 30))
	f.Fuzz(func(t *testing.T, ops []byte) {
		(&outboxPair{t: t}).run(ops)
	})
}
