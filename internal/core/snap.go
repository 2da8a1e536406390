package core

import (
	"cmp"

	"repro/internal/async"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// State codecs for the synchronizer stack and the α/β/γ baselines. Each
// handler codes its complete mutable run state once, in a state method its
// SaveState and LoadState both run through a wire.Coder — the embedded
// synchronous algorithm first (Coder.Nested), then the synchronizer's own
// bookkeeping — so the engine state plane can checkpoint and resume any
// synchronized run. ModeSpec copies the stack into its per-round clones
// through the same codecs.
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
	_, ok := algo.(wire.StateCodec)
	return ok
}

// algoState codes the synchronized algorithm's state as a nested blob.
func algoState(c *wire.Coder, algo syncrun.Handler) {
	sc, ok := algo.(wire.StateCodec)
	if !ok {
		c.Fail("core: synchronized algorithm %T does not implement wire.StateCodec", algo)
		return
	}
	c.Nested(sc)
}

// incoming codes one message of a pulse batch.
func incoming(c *wire.Coder, in *syncrun.Incoming) {
	wire.ID(c, &in.From)
	c.Body(&in.Body)
}

// --- nodeCore --------------------------------------------------------------

// StateCodecOK implements async.StateCodecProbe: the core is serializable
// iff the embedded algorithm is.
func (c *nodeCore) StateCodecOK() bool { return algoCodecOK(c.algo) }

// SaveState implements wire.StateCodec.
func (c *nodeCore) SaveState(e *wire.Enc) { c.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (c *nodeCore) LoadState(d *wire.Dec) { c.state(d.Coder()) }

// state codes the flat state in one linear walk. A load refuses vnodes
// whose pulses do not ascend within the bound or whose q-states were not
// loaded, and ready children on q-states past the pool; one that fails
// leaves no vnode pointing past the pool.
func (c *nodeCore) state(w *wire.Coder) {
	algoState(w, c.algo)
	w.Bool(&c.started)
	w.Bool(&c.originator)
	wire.List(w, &c.initSends, &c.st.sends, func(w *wire.Coder, s *capturedSend) {
		wire.ID(w, &s.to)
		w.Body(&s.body)
	})
	w.Int(&c.barrierRegWait)

	prev := int32(-1)
	wire.List(w, &c.vnodes, &c.st.vnodes, func(w *wire.Coder, v *vnode) {
		w.I32(&v.pulse)
		wire.ID(w, &v.parentPhys)
		w.Bool(&v.parentSelf)
		w.Bool(&v.hasParent)
		w.Bool(&v.evaluated)
		w.Bool(&v.sentAny)
		w.Bool(&v.selfChild)
		w.I32(&v.outstandingReplies)
		w.I32(&v.childPhys)
		w.I32(&v.qoff)
		if w.Loading() && (v.pulse <= prev || int(v.pulse) > c.st.sched.B) {
			w.Fail("core: vnode has pulse %d after %d (bound %d, pulses must ascend)", v.pulse, prev, c.st.sched.B)
		}
		prev = v.pulse
	})
	wire.List(w, &c.qs, &c.st.qs, func(w *wire.Coder, st *qstate) {
		w.I32(&st.reports)
		w.I32(&st.gateOutstanding)
		w.I32(&st.regOutstanding)
		w.I32(&st.gaOutstanding)
		w.Bool(&st.registered)
		w.Bool(&st.anyReady)
		w.Bool(&st.resolved)
		w.Bool(&st.ready)
		w.Bool(&st.forwarded)
		w.Bool(&st.readySelf)
	})
	for _, v := range c.vnodes {
		if w.Loading() && (v.qoff < 0 || int(v.qoff)+len(c.st.sched.Tracked(int(v.pulse))) > len(c.qs)) {
			w.Fail("core: vnode of pulse %d claims q-states from %d, only %d loaded", v.pulse, v.qoff, len(c.qs))
		}
	}
	wire.List(w, &c.ready, &c.st.ready, func(w *wire.Coder, r *readyRef) {
		w.I32(&r.qi)
		wire.ID(w, &r.child)
		if w.Loading() && (r.qi < 0 || int(r.qi) >= len(c.qs)) {
			w.Fail("core: ready child %d refers to q-state %d of %d", r.child, r.qi, len(c.qs))
		}
	})
	wire.List(w, &c.recvd, &c.st.recvd, func(w *wire.Coder, m *pendingMsg) {
		w.I32(&m.pulse)
		incoming(w, &m.in)
	})
	if w.Failed() { // never leave vnodes pointing past the q-state pool
		c.vnodes, c.qs, c.ready, c.recvd = c.vnodes[:0], c.qs[:0], c.ready[:0], c.recvd[:0]
	}
}

// --- alpha, beta, gamma ---------------------------------------------------

// StateCodecOK implements async.StateCodecProbe for every baseline.
func (s *pulseShell) StateCodecOK() bool { return algoCodecOK(s.algo) }

// SaveState implements wire.StateCodec.
func (a *alphaNode) SaveState(e *wire.Enc) { a.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (a *alphaNode) LoadState(d *wire.Dec) { a.state(d.Coder()) }

// state codes the pulse and the bound-indexed slices' entries: the slices
// are fixed length (bound+1, set at construction).
func (a *alphaNode) state(c *wire.Coder) {
	algoState(c, a.algo)
	c.Int(&a.pulse)
	for p := range a.recvd {
		wire.List(c, &a.recvd[p], nil, incoming)
		c.Int(&a.safeCnt[p])
		c.Int(&a.sendAcked[p])
		c.Bool(&a.selfSafe[p])
		c.Bool(&a.sentSafe[p])
	}
}

// --- beta ------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (b *betaNode) SaveState(e *wire.Enc) { b.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (b *betaNode) LoadState(d *wire.Dec) { b.state(d.Coder()) }

func (b *betaNode) state(c *wire.Coder) {
	algoState(c, b.algo)
	c.Int(&b.pulse)
	for p := range b.recvd {
		wire.List(c, &b.recvd[p], nil, incoming)
		c.Int(&b.sendAcked[p])
		c.Bool(&b.selfSafe[p])
		c.Int(&b.childSafe[p])
		c.Bool(&b.reportSent[p])
	}
}

// --- gamma -----------------------------------------------------------------

func (a gKey) cmp(b gKey) int {
	return cmp.Or(cmp.Compare(a.cluster, b.cluster), cmp.Compare(a.pulse, b.pulse))
}

// SaveState implements wire.StateCodec.
func (gm *gammaNode) SaveState(e *wire.Enc) { gm.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (gm *gammaNode) LoadState(d *wire.Dec) { gm.state(d.Coder()) }

func (gm *gammaNode) state(c *wire.Coder) {
	algoState(c, gm.algo)
	c.Int(&gm.pulse)
	for p := range gm.recvd {
		wire.List(c, &gm.recvd[p], nil, incoming)
		c.Int(&gm.sendAcked[p])
		c.Bool(&gm.safe[p])
	}
	wire.Map(c, &gm.ph, gKey.cmp, func(c *wire.Coder, k *gKey, p **gammaPhase) {
		c.Int(&k.cluster)
		c.Int(&k.pulse)
		st := wire.Alloc(p)
		c.Int(&st.p1Count)
		c.Bool(&st.p1Sent)
		c.Bool(&st.cSafe)
		c.Int(&st.extSafe)
		c.Int(&st.p2Count)
		c.Bool(&st.p2Sent)
	})
}
