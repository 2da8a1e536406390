package core

import (
	"fmt"
	"sort"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// State codecs for the synchronizer stack and the α/β/γ baselines. Each
// handler serializes its complete mutable run state — the embedded
// synchronous algorithm first (as a blob, via its own wire.StateCodec),
// then the synchronizer's own bookkeeping — so the engine state plane can
// checkpoint and resume any synchronized run. The synchronizer core also
// copies itself directly (CloneModuleInto) for ModeSpec's per-round clones.
//
// The congestStamp deliberately stays out of every frame: its epoch
// counter only ever grows and stamps are compared for equality, so a
// restored handler's fresh zero stamps can never falsely collide with a
// future epoch — the CONGEST guard re-arms itself.

var (
	_ wire.StateCodec       = (*nodeCore)(nil)
	_ async.StateCodecProbe = (*nodeCore)(nil)
	_ wire.StateCodec       = (*alphaNode)(nil)
	_ async.StateCodecProbe = (*alphaNode)(nil)
	_ wire.StateCodec       = (*betaNode)(nil)
	_ async.StateCodecProbe = (*betaNode)(nil)
	_ wire.StateCodec       = (*gammaNode)(nil)
	_ async.StateCodecProbe = (*gammaNode)(nil)
)

// --- shared helpers --------------------------------------------------------

func algoCodecOK(algo syncrun.Handler) bool {
	if _, ok := algo.(wire.StateCodec); !ok {
		return false
	}
	return true
}

func saveAlgoState(e *wire.Enc, algo syncrun.Handler) {
	sc, ok := algo.(wire.StateCodec)
	if !ok {
		panic(fmt.Sprintf("core: synchronized algorithm %T does not implement wire.StateCodec", algo))
	}
	mark := e.BeginBlob()
	sc.SaveState(e)
	e.EndBlob(mark)
}

func loadAlgoState(d *wire.Dec, algo syncrun.Handler) {
	sc, ok := algo.(wire.StateCodec)
	if !ok {
		d.Fail("core: synchronized algorithm %T does not implement wire.StateCodec", algo)
		return
	}
	end := d.BeginBlob()
	if d.Failed() {
		return
	}
	sc.LoadState(d)
	d.EndBlob(end)
}

func saveIncoming(e *wire.Enc, batch []syncrun.Incoming) {
	e.U32(uint32(len(batch)))
	for _, in := range batch {
		e.I32(int32(in.From))
		e.Body(in.Body)
	}
}

func loadIncoming(d *wire.Dec) []syncrun.Incoming {
	n := int(d.U32())
	var batch []syncrun.Incoming
	for i := 0; i < n && !d.Failed(); i++ {
		in := syncrun.Incoming{From: graph.NodeID(d.I32()), Body: d.Body()}
		if !d.Failed() {
			batch = append(batch, in)
		}
	}
	return batch
}

// --- nodeCore --------------------------------------------------------------

var _ async.ModuleState = (*nodeCore)(nil)

// StateCodecOK implements async.StateCodecProbe: the core is serializable
// iff the embedded algorithm is.
func (c *nodeCore) StateCodecOK() bool { return algoCodecOK(c.algo) }

// CloneModuleInto implements async.ModuleState: the flat run state copies
// straight across. Only the embedded algorithm goes through its codec — a
// few bytes, via a frame and decoder this core retains — because
// wire.StateCodec is the one state contract algorithms (and decorators
// wrapped around them) are asked to implement.
func (c *nodeCore) CloneModuleInto(dst async.Module) {
	d := dst.(*nodeCore)
	c.algoBuf.Reset()
	saveAlgoState(&c.algoBuf, c.algo)
	c.algoDec.Reset(c.algoBuf.Bytes(), nil)
	loadAlgoState(&c.algoDec, d.algo)
	if err := c.algoDec.Err(); err != nil {
		panic(fmt.Sprintf("core: cloning %T through its state codec: %v", c.algo, err))
	}
	d.started = c.started
	d.originator = c.originator
	d.barrierRegWait = c.barrierRegWait
	d.initSends = append(d.initSends[:0], c.initSends...)
	d.vnodes = append(d.vnodes[:0], c.vnodes...)
	d.qs = append(d.qs[:0], c.qs...)
	d.ready = append(d.ready[:0], c.ready...)
	d.recvd = append(d.recvd[:0], c.recvd...)
}

// SaveState implements wire.StateCodec: a linear walk of the flat state.
func (c *nodeCore) SaveState(e *wire.Enc) {
	saveAlgoState(e, c.algo)
	e.Bool(c.started)
	e.Bool(c.originator)
	e.U32(uint32(len(c.initSends)))
	for _, s := range c.initSends {
		e.I32(int32(s.to))
		e.Body(s.body)
	}
	e.Int(c.barrierRegWait)

	e.U32(uint32(len(c.vnodes)))
	for i := range c.vnodes {
		v := &c.vnodes[i]
		e.I32(v.pulse)
		e.I32(int32(v.parentPhys))
		e.Bool(v.parentSelf)
		e.Bool(v.hasParent)
		e.Bool(v.evaluated)
		e.Bool(v.sentAny)
		e.Bool(v.selfChild)
		e.I32(v.outstandingReplies)
		e.I32(v.childPhys)
		e.I32(v.qoff)
	}
	e.U32(uint32(len(c.qs)))
	for i := range c.qs {
		st := &c.qs[i]
		e.I32(st.reports)
		e.I32(st.gateOutstanding)
		e.I32(st.regOutstanding)
		e.I32(st.gaOutstanding)
		e.Bool(st.registered)
		e.Bool(st.anyReady)
		e.Bool(st.resolved)
		e.Bool(st.ready)
		e.Bool(st.forwarded)
		e.Bool(st.readySelf)
	}
	e.U32(uint32(len(c.ready)))
	for _, r := range c.ready {
		e.I32(r.qi)
		e.I32(int32(r.child))
	}
	e.U32(uint32(len(c.recvd)))
	for _, m := range c.recvd {
		e.I32(m.pulse)
		e.I32(int32(m.in.From))
		e.Body(m.in.Body)
	}
}

// LoadState implements wire.StateCodec.
func (c *nodeCore) LoadState(d *wire.Dec) {
	loadAlgoState(d, c.algo)
	c.started = d.Bool()
	c.originator = d.Bool()
	c.initSends = c.initSends[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		s := capturedSend{to: graph.NodeID(d.I32()), body: d.Body()}
		if !d.Failed() {
			c.initSends = append(c.initSends, s)
		}
	}
	c.barrierRegWait = d.Int()

	c.vnodes = c.vnodes[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		v := vnode{
			pulse:              d.I32(),
			parentPhys:         graph.NodeID(d.I32()),
			parentSelf:         d.Bool(),
			hasParent:          d.Bool(),
			evaluated:          d.Bool(),
			sentAny:            d.Bool(),
			selfChild:          d.Bool(),
			outstandingReplies: d.I32(),
			childPhys:          d.I32(),
			qoff:               d.I32(),
		}
		if d.Failed() {
			break
		}
		if v.pulse < 0 || int(v.pulse) > c.sched.B || (i > 0 && v.pulse <= c.vnodes[i-1].pulse) {
			d.Fail("core: vnode %d has pulse %d (bound %d, pulses must ascend)", i, v.pulse, c.sched.B)
			break
		}
		c.vnodes = append(c.vnodes, v)
	}
	c.qs = c.qs[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		st := qstate{
			reports:         d.I32(),
			gateOutstanding: d.I32(),
			regOutstanding:  d.I32(),
			gaOutstanding:   d.I32(),
			registered:      d.Bool(),
			anyReady:        d.Bool(),
			resolved:        d.Bool(),
			ready:           d.Bool(),
			forwarded:       d.Bool(),
			readySelf:       d.Bool(),
		}
		if !d.Failed() {
			c.qs = append(c.qs, st)
		}
	}
	for i := range c.vnodes {
		v := &c.vnodes[i]
		if v.qoff < 0 || int(v.qoff)+len(c.sched.Tracked(int(v.pulse))) > len(c.qs) {
			d.Fail("core: vnode of pulse %d claims q-states from %d, only %d loaded", v.pulse, v.qoff, len(c.qs))
		}
	}
	c.ready = c.ready[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		r := readyRef{qi: d.I32(), child: graph.NodeID(d.I32())}
		if !d.Failed() && (r.qi < 0 || int(r.qi) >= len(c.qs)) {
			d.Fail("core: ready child %d refers to q-state %d of %d", r.child, r.qi, len(c.qs))
		}
		if !d.Failed() {
			c.ready = append(c.ready, r)
		}
	}
	c.recvd = c.recvd[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		m := pendingMsg{pulse: d.I32(), in: syncrun.Incoming{From: graph.NodeID(d.I32()), Body: d.Body()}}
		if !d.Failed() {
			c.recvd = append(c.recvd, m)
		}
	}
	if d.Failed() { // never leave vnodes pointing past the q-state pool
		c.vnodes, c.qs, c.ready, c.recvd = c.vnodes[:0], c.qs[:0], c.ready[:0], c.recvd[:0]
	}
}

// --- alpha -----------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe.
func (a *alphaNode) StateCodecOK() bool { return algoCodecOK(a.algo) }

// SaveState implements wire.StateCodec. The bound-indexed slices are fixed
// length (bound+1, set at construction), so only the entries travel.
func (a *alphaNode) SaveState(e *wire.Enc) {
	saveAlgoState(e, a.algo)
	e.Int(a.pulse)
	for p := range a.recvd {
		saveIncoming(e, a.recvd[p])
		e.Int(a.safeCnt[p])
		e.Int(a.sendAcked[p])
		e.Bool(a.selfSafe[p])
		e.Bool(a.sentSafe[p])
	}
}

// LoadState implements wire.StateCodec.
func (a *alphaNode) LoadState(d *wire.Dec) {
	loadAlgoState(d, a.algo)
	a.pulse = d.Int()
	for p := range a.recvd {
		a.recvd[p] = loadIncoming(d)
		a.safeCnt[p] = d.Int()
		a.sendAcked[p] = d.Int()
		a.selfSafe[p] = d.Bool()
		a.sentSafe[p] = d.Bool()
	}
}

// --- beta ------------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe.
func (b *betaNode) StateCodecOK() bool { return algoCodecOK(b.algo) }

// SaveState implements wire.StateCodec.
func (b *betaNode) SaveState(e *wire.Enc) {
	saveAlgoState(e, b.algo)
	e.Int(b.pulse)
	for p := range b.recvd {
		saveIncoming(e, b.recvd[p])
		e.Int(b.sendAcked[p])
		e.Bool(b.selfSafe[p])
		e.Int(b.childSafe[p])
		e.Bool(b.reportSent[p])
	}
}

// LoadState implements wire.StateCodec.
func (b *betaNode) LoadState(d *wire.Dec) {
	loadAlgoState(d, b.algo)
	b.pulse = d.Int()
	for p := range b.recvd {
		b.recvd[p] = loadIncoming(d)
		b.sendAcked[p] = d.Int()
		b.selfSafe[p] = d.Bool()
		b.childSafe[p] = d.Int()
		b.reportSent[p] = d.Bool()
	}
}

// --- gamma -----------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe.
func (gm *gammaNode) StateCodecOK() bool { return algoCodecOK(gm.algo) }

// SaveState implements wire.StateCodec.
func (gm *gammaNode) SaveState(e *wire.Enc) {
	saveAlgoState(e, gm.algo)
	e.Int(gm.pulse)
	for p := range gm.recvd {
		saveIncoming(e, gm.recvd[p])
		e.Int(gm.sendAcked[p])
		e.Bool(gm.safe[p])
	}
	keys := make([]gKey, 0, len(gm.ph))
	for k := range gm.ph {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cluster != keys[j].cluster {
			return keys[i].cluster < keys[j].cluster
		}
		return keys[i].pulse < keys[j].pulse
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		st := gm.ph[k]
		e.Int(k.cluster)
		e.Int(k.pulse)
		e.Int(st.p1Count)
		e.Bool(st.p1Sent)
		e.Bool(st.cSafe)
		e.Int(st.extSafe)
		e.Int(st.p2Count)
		e.Bool(st.p2Sent)
	}
}

// LoadState implements wire.StateCodec.
func (gm *gammaNode) LoadState(d *wire.Dec) {
	loadAlgoState(d, gm.algo)
	gm.pulse = d.Int()
	for p := range gm.recvd {
		gm.recvd[p] = loadIncoming(d)
		gm.sendAcked[p] = d.Int()
		gm.safe[p] = d.Bool()
	}
	n := int(d.U32())
	gm.ph = make(map[gKey]*gammaPhase, n)
	for i := 0; i < n && !d.Failed(); i++ {
		k := gKey{cluster: d.Int(), pulse: d.Int()}
		st := &gammaPhase{
			p1Count: d.Int(),
			p1Sent:  d.Bool(),
			cSafe:   d.Bool(),
			extSafe: d.Int(),
			p2Count: d.Int(),
			p2Sent:  d.Bool(),
		}
		if !d.Failed() {
			gm.ph[k] = st
		}
	}
}
