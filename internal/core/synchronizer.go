package core

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/reg"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// nodeCore is the per-node synchronizer engine. It owns the embedded
// synchronous algorithm, the execution-forest state (vnodes), and drives
// the per-cover-level registration and barrier modules.
//
// Run state is flat: vnodes sorted by pulse, one pool of q-states that
// vnodes index into, and two small arrival-ordered lists (ready, recvd)
// whose entries are removed once consumed. Nothing here is a map or a
// per-vnode allocation, so the speculative executor's per-round clone
// (CloneModuleInto) is a handful of copies.
type nodeCore struct {
	sched   *Schedule
	layered *cover.Layered
	algo    syncrun.Handler

	// Per-cover-level modules, indexed by level (nil below level 5).
	regMods []*reg.Module
	barMods []*gather.Module

	vnodes []vnode      // sorted by pulse
	qs     []qstate     // vnode v's block starts at v.qoff
	ready  []readyRef   // physical children owed a Go-Ahead
	recvd  []pendingMsg // algorithm messages awaiting their pulse

	started        bool
	originator     bool
	initSends      []capturedSend
	barrierRegWait int
	cs             congestStamp

	// Scratch, not state: the batch handed to Pulse, and the frame the
	// embedded algorithm is cloned through (see CloneModuleInto).
	batch   []syncrun.Incoming
	algoBuf wire.Enc
	algoDec wire.Dec
}

type capturedSend struct {
	to   graph.NodeID
	body wire.Body
}

var _ async.Module = (*nodeCore)(nil)
var _ reg.Callbacks = (*nodeCore)(nil)
var _ gather.Callbacks = (*nodeCore)(nil)

// Start implements async.Module: run Init in capture mode, then join the
// originator barriers of §4.2 (one register-barrier and one
// dereg-barrier gather session per originator pulse).
func (c *nodeCore) Start(n *async.Node) {
	if c.started {
		return
	}
	c.started = true
	c.algo.Init(c.newAPI(n, nil, true))
	c.originator = len(c.initSends) > 0
	c.barrierRegWait = len(c.sched.Barrier())
	for _, p := range c.sched.Barrier() {
		bm := c.barMods[c.sched.CoverLevel(p)]
		bm.MarkDone(n, barrierRegSession(p))
		if c.originator {
			bm.Begin(n, barrierDeregSession(p))
		} else {
			bm.MarkDone(n, barrierDeregSession(p))
		}
	}
	if c.barrierRegWait == 0 && c.originator {
		c.releaseOriginator(n)
	}
}

func barrierRegSession(p int) int   { return 2 * p }
func barrierDeregSession(p int) int { return 2*p + 1 }

// releaseOriginator creates the pulse-0 vnode and sends the buffered Init
// messages (all originator-pulse registrations are confirmed).
func (c *nodeCore) releaseOriginator(n *async.Node) {
	v := c.newVnode(0)
	v.evaluated = true
	for _, s := range c.initSends {
		c.sendAlgo(n, v, s.to, s.body)
	}
	v.sentAny = true
	c.initSends = c.initSends[:0]
	if c.vn(1) == nil {
		c.createVnode(n, 1, -1, true)
	}
	c.afterAnswersMaybe(n, 0)
}

// createVnode tentatively instantiates (me, p) with the given parent and
// emits the creation report (q = p, ready) plus the chosen reply.
func (c *nodeCore) createVnode(n *async.Node, p int, parentPhys graph.NodeID, parentSelf bool) {
	if p > c.sched.B {
		panic(fmt.Sprintf("core: node %d reached pulse %d beyond bound %d", n.ID(), p, c.sched.B))
	}
	v := c.newVnode(p)
	v.parentPhys = parentPhys
	v.parentSelf = parentSelf
	v.hasParent = true
	if parentSelf {
		c.vn(p - 1).selfChild = true
		c.onChildStatus(n, p-1, statusMsg{Q: p, ChildPulse: p, Ready: true}, -1, true)
	} else {
		n.Send(parentPhys, async.Msg{Proto: ProtoAlgo, Stage: p - 1, Body: encReply(replyMsg{Pulse: p - 1, Chosen: true})})
		n.Send(parentPhys, async.Msg{Proto: ProtoTree, Stage: p, Body: encStatus(statusMsg{Q: p, ChildPulse: p, Ready: true})})
	}
}

// sendAlgo transmits one synchronous-algorithm message of pulse v.pulse,
// framed as kindAlgo (the pulse rides in P, the payload stays in place).
func (c *nodeCore) sendAlgo(n *async.Node, v *vnode, to graph.NodeID, body wire.Body) {
	v.outstandingReplies++
	n.Send(to, async.Msg{Proto: ProtoAlgo, Stage: int(v.pulse), Body: frameAlgo(int(v.pulse), body)})
}

// Recv implements async.Module for ProtoAlgo and ProtoTree.
func (c *nodeCore) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	switch m.Body.Kind {
	case kindAlgo:
		pulse, inner := m.Body.Unframe()
		c.onAlgoMsg(n, from, pulse, inner)
	case kindReply:
		c.onReply(n, from, decReply(m.Body))
	case kindStatus:
		body := decStatus(m.Body)
		if c.vn(body.ChildPulse-1) == nil {
			panic(fmt.Sprintf("core: node %d got report for absent vnode %d", n.ID(), body.ChildPulse-1))
		}
		c.onChildStatus(n, body.ChildPulse-1, body, from, false)
	case kindGA:
		body := decGA(m.Body)
		if c.vn(body.ChildPulse) == nil {
			panic(fmt.Sprintf("core: node %d got GA(%d) for absent vnode %d", n.ID(), body.Q, body.ChildPulse))
		}
		c.onGA(n, body.ChildPulse, body.Q)
	default:
		panic(fmt.Sprintf("core: node %d got unknown payload kind %d", n.ID(), m.Body.Kind))
	}
}

// Ack implements async.Module.
func (c *nodeCore) Ack(*async.Node, graph.NodeID, async.Msg) {}

func (c *nodeCore) onAlgoMsg(n *async.Node, from graph.NodeID, pulse int, body wire.Body) {
	p := pulse + 1
	next := c.vn(p)
	if next != nil && next.evaluated {
		panic(fmt.Sprintf("core: node %d got pulse-%d message after Go-Ahead(%d) — synchronization broken", n.ID(), pulse, p))
	}
	// The message is retained until Go-Ahead(p) evaluates the pulse — long
	// past the carrying message's lifecycle — which is why frameAlgo
	// rejects seg-carrying algorithm payloads at the send side.
	c.recvd = append(c.recvd, pendingMsg{pulse: int32(pulse), in: syncrun.Incoming{From: from, Body: body}})
	if next != nil {
		// Already triggered: decline.
		n.Send(from, async.Msg{Proto: ProtoAlgo, Stage: pulse, Body: encReply(replyMsg{Pulse: pulse, Chosen: false})})
		return
	}
	c.createVnode(n, p, from, false)
}

func (c *nodeCore) onReply(n *async.Node, from graph.NodeID, r replyMsg) {
	v := c.vn(r.Pulse)
	if v == nil {
		panic(fmt.Sprintf("core: node %d got reply for absent vnode %d", n.ID(), r.Pulse))
	}
	if r.Chosen {
		v.childPhys++
	}
	v.outstandingReplies--
	if v.outstandingReplies < 0 {
		panic(fmt.Sprintf("core: node %d got surplus reply for pulse %d", n.ID(), r.Pulse))
	}
	c.afterAnswersMaybe(n, r.Pulse)
}

// afterAnswersMaybe fires the q-resolutions that were waiting for the
// pulse-p vnode's children set to become final.
func (c *nodeCore) afterAnswersMaybe(n *async.Node, p int) {
	v := c.vn(p)
	if !v.answersDone() {
		return
	}
	first, count := int(v.qoff), len(c.sched.Tracked(p))
	for k := 0; k < count; k++ {
		c.tryResolve(n, p, first+k)
	}
}

func (c *nodeCore) onChildStatus(n *async.Node, p int, s statusMsg, fromPhys graph.NodeID, fromSelf bool) {
	qi := c.qi(p, s.Q)
	qs := &c.qs[qi]
	qs.reports++
	if s.Ready {
		qs.anyReady = true
		if fromSelf {
			qs.readySelf = true
		} else {
			c.ready = append(c.ready, readyRef{qi: int32(qi), child: fromPhys})
		}
	}
	c.tryResolve(n, p, qi)
}

// tryResolve completes q-state qi of the pulse-p vnode once answers and
// child reports are all in, then performs the §4.1.2 actions: deregister
// (consumer), register-and-gate (prev(q) pulse), and forward the report.
func (c *nodeCore) tryResolve(n *async.Node, p, qi int) {
	v, qs := c.vn(p), &c.qs[qi]
	if qs.resolved || !v.answersDone() || qs.reports < v.childCount() {
		return
	}
	q := c.sched.Tracked(p)[qi-int(v.qoff)]
	if qs.reports > v.childCount() {
		panic(fmt.Sprintf("core: node %d pulse %d got %d reports for %d children (q=%d)",
			n.ID(), p, qs.reports, v.childCount(), q))
	}
	qs.resolved = true
	qs.ready = qs.anyReady

	if c.sched.Consumer(p, q) {
		c.consumeStatus(n, p, q, qi)
		return
	}
	sessions := c.sched.RegisterSessions(p, q)
	if qs.ready && len(sessions) > 0 {
		qs.gateOutstanding = int32(len(sessions))
		for _, s := range sessions {
			c.registerSession(n, p, s)
		}
		return
	}
	c.forwardStatus(n, p, q, qi)
}

// registerSession joins every cluster of session s's cover level, on behalf
// of the pulse-p vnode (p = prev2(s)).
func (c *nodeCore) registerSession(n *async.Node, p, s int) {
	lvl := c.sched.CoverLevel(s)
	ids := c.layered.Level(lvl).MemberOf(n.ID())
	if len(ids) == 0 {
		panic(fmt.Sprintf("core: node %d is in no cluster at level %d", n.ID(), lvl))
	}
	c.qs[c.qi(p, s)].regOutstanding = int32(len(ids))
	for _, cid := range ids {
		c.regMods[lvl].Register(n, cid, s)
	}
}

// consumeStatus handles resolution at the convergecast top (p = prev2(q)):
// deregister session q (wave pulses) or complete the dereg barrier
// (originator pulses).
func (c *nodeCore) consumeStatus(n *async.Node, p, q, qi int) {
	if p == 0 {
		if !c.sched.IsBarrier(q) {
			panic(fmt.Sprintf("core: pulse-0 consumer for non-barrier pulse %d", q))
		}
		c.barMods[c.sched.CoverLevel(q)].MarkDone(n, barrierDeregSession(q))
		return
	}
	qs := &c.qs[qi]
	if !qs.registered {
		// Never registered: prev(q) was empty below us, so q is too; no
		// Go-Ahead is owed to this subtree.
		if qs.ready {
			panic(fmt.Sprintf("core: node %d pulse %d resolved q=%d ready without registration", n.ID(), p, q))
		}
		return
	}
	lvl := c.sched.CoverLevel(q)
	ids := c.layered.Level(lvl).MemberOf(n.ID())
	qs.gaOutstanding = int32(len(ids))
	for _, cid := range ids {
		c.regMods[lvl].Deregister(n, cid, q)
	}
}

// forwardStatus sends the resolved q-report of the pulse-p vnode to its
// execution-forest parent.
func (c *nodeCore) forwardStatus(n *async.Node, p, q, qi int) {
	qs := &c.qs[qi]
	if qs.forwarded {
		return
	}
	qs.forwarded = true
	report := statusMsg{Q: q, ChildPulse: p, Ready: qs.ready}
	v := c.vn(p)
	if v.parentSelf {
		c.onChildStatus(n, p-1, report, -1, true)
		return
	}
	n.Send(v.parentPhys, async.Msg{Proto: ProtoTree, Stage: q, Body: encStatus(report)})
}

// onGA handles Go-Ahead(q) at the pulse-p vnode (p <= q): evaluate when
// this is the target pulse, otherwise route down to q-ready children.
func (c *nodeCore) onGA(n *async.Node, p, q int) {
	if p == q {
		c.evaluate(n, p)
		return
	}
	c.propagateGA(n, p, q)
}

func (c *nodeCore) propagateGA(n *async.Node, p, q int) {
	qi := c.qi(p, q)
	if !c.qs[qi].resolved {
		panic(fmt.Sprintf("core: node %d pulse %d forwarding GA(%d) before resolution", n.ID(), p, q))
	}
	// Go-Ahead(q) passes a vnode once, so the children it is routed to
	// leave the list here.
	kept := 0
	for _, r := range c.ready {
		if int(r.qi) == qi {
			n.Send(r.child, async.Msg{Proto: ProtoTree, Stage: q, Body: encGA(gaMsg{Q: q, ChildPulse: p + 1})})
		} else {
			c.ready[kept] = r
			kept++
		}
	}
	c.ready = c.ready[:kept]
	if c.qs[qi].readySelf {
		c.onGA(n, p+1, q)
	}
}

// takeBatch moves the pulse's received messages out of recvd into the
// batch scratch, sorted by sender (at most one per neighbor and pulse).
func (c *nodeCore) takeBatch(pulse int) []syncrun.Incoming {
	batch, kept := c.batch[:0], 0
	for _, m := range c.recvd {
		if int(m.pulse) != pulse {
			c.recvd[kept] = m
			kept++
			continue
		}
		i := len(batch)
		batch = append(batch, m.in)
		for ; i > 0 && batch[i-1].From > m.in.From; i-- {
			batch[i] = batch[i-1]
		}
		batch[i] = m.in
	}
	c.recvd = c.recvd[:kept]
	c.batch = batch
	return batch
}

// evaluate runs the synchronous algorithm's pulse p (Go-Ahead(p) arrived:
// every pulse <= p-1 message is in hand, Lemma 5.1).
func (c *nodeCore) evaluate(n *async.Node, p int) {
	v := c.vn(p)
	if v.evaluated {
		panic(fmt.Sprintf("core: node %d pulse %d evaluated twice", n.ID(), p))
	}
	v.evaluated = true
	// Pulse only queues sends, so v stays put until createVnode below.
	c.algo.Pulse(c.newAPI(n, v, false), p, c.takeBatch(p-1))
	if v.sentAny {
		if p == c.sched.B {
			panic(fmt.Sprintf("core: node %d sent at pulse %d = bound — bound too small", n.ID(), p))
		}
		if c.vn(p+1) == nil {
			c.createVnode(n, p+1, -1, true)
		}
	}
	c.afterAnswersMaybe(n, p)
}

// Registered implements reg.Callbacks: one cluster of a wave session
// confirmed; when the last does, the gated q-report is released.
func (c *nodeCore) Registered(n *async.Node, _ cover.ClusterID, session int) {
	p := prevPrev(session)
	qs := &c.qs[c.qi(p, session)]
	qs.regOutstanding--
	if qs.regOutstanding > 0 {
		return
	}
	qs.registered = true
	q := prevOf(session)
	gate := c.qi(p, q)
	c.qs[gate].gateOutstanding--
	if c.qs[gate].gateOutstanding == 0 {
		c.forwardStatus(n, p, q, gate)
	}
}

// GoAhead implements reg.Callbacks: one cluster's Go-Ahead for a wave
// session; when the last arrives, GA(session) flows down the forest.
func (c *nodeCore) GoAhead(n *async.Node, _ cover.ClusterID, session int) {
	p := prevPrev(session)
	qs := &c.qs[c.qi(p, session)]
	qs.gaOutstanding--
	if qs.gaOutstanding > 0 {
		return
	}
	c.propagateGA(n, p, session)
}

// NeighborhoodDone implements gather.Callbacks for the originator barriers.
func (c *nodeCore) NeighborhoodDone(n *async.Node, session int) {
	if session%2 == 0 { // register barrier
		c.barrierRegWait--
		if c.barrierRegWait == 0 && c.originator {
			c.releaseOriginator(n)
		}
		return
	}
	// Dereg barrier: Go-Ahead(p) for this originator.
	if !c.originator {
		return
	}
	c.propagateGA(n, 0, (session-1)/2)
}
