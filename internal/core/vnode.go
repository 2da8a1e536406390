package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/syncrun"
)

// vnode is one virtual node (v, pulse) of the execution forest (§5.2): the
// pulse-π send-step of a physical node. It is created tentatively at the
// first pulse-(π-1) trigger (message received, or own send at π-1) and
// evaluated — the synchronous algorithm run and its pulse-π messages
// released — when Go-Ahead(π) arrives.
//
// A vnode is a fixed-shape value in nodeCore.vnodes; everything of variable
// length that used to hang off it lives in the core's shared pools (qs,
// ready, recvd), so cloning a core is a few slice copies.
type vnode struct {
	pulse int32

	// Execution-forest parentage. Originator vnodes (pulse 0) have neither.
	parentPhys graph.NodeID
	parentSelf bool
	hasParent  bool

	// evaluated: Go-Ahead(pulse) processed and the algorithm's Pulse run.
	evaluated bool
	// sentAny: the algorithm sent >= 1 message at this pulse.
	sentAny bool
	// selfChild: (v, π+1) exists with this vnode as parent.
	selfChild bool

	// outstandingReplies counts sent pulse-π messages not yet answered
	// with a chosen/declined reply.
	outstandingReplies int32
	// childPhys counts neighbors whose (w, π+1) chose this vnode as parent.
	childPhys int32

	// qoff is this vnode's first q-state in nodeCore.qs: one per entry of
	// sched.Tracked(pulse), in that (ascending) order.
	qoff int32
}

// qstate tracks the q-status convergecast at one vnode: resolved when the
// vnode's own sends are all answered and every execution-forest child has
// reported; ready when the subtree contains a pulse-q vnode (and, per the
// report semantics of §4.1.2, everything of pulse < q in it is safe). The
// tracked pulse q itself is implied by the state's position.
type qstate struct {
	reports         int32
	gateOutstanding int32 // sessions still registering before forwarding
	// Wave-registration bookkeeping for session q, used at the vnode whose
	// pulse is prev2(q) — the only vnode that registers for it.
	regOutstanding int32 // clusters awaiting Registered
	gaOutstanding  int32 // clusters awaiting GoAhead
	registered     bool  // fully registered
	anyReady       bool
	resolved       bool
	ready          bool
	forwarded      bool
	// readySelf: the self child reported q-ready. Physical children that
	// did are in nodeCore.ready until Go-Ahead(q) is routed to them.
	readySelf bool
}

// readyRef records, in arrival order, that a physical child reported the
// q-state qi ready: Go-Ahead(q) is owed to it.
type readyRef struct {
	qi    int32
	child graph.NodeID
}

// pendingMsg is a received algorithm message waiting for its pulse to be
// evaluated.
type pendingMsg struct {
	pulse int32
	in    syncrun.Incoming
}

// answersDone reports whether the vnode's children set is final: it has
// evaluated (so its sends happened) and every send was answered.
func (v *vnode) answersDone() bool {
	return v.evaluated && v.outstandingReplies == 0
}

// childCount returns the final number of execution-forest children; only
// meaningful once answersDone.
func (v *vnode) childCount() int32 {
	n := v.childPhys
	if v.selfChild {
		n++
	}
	return n
}

// find returns the slot of the pulse-p vnode, or where it would be
// inserted, and whether it exists. vnodes is sorted by pulse.
func (c *nodeCore) find(p int) (int, bool) {
	i := sort.Search(len(c.vnodes), func(i int) bool { return int(c.vnodes[i].pulse) >= p })
	return i, i < len(c.vnodes) && int(c.vnodes[i].pulse) == p
}

// vn returns the pulse-p vnode, or nil. The pointer is only good until the
// next vnode is created (newVnode moves them), and almost every call on the
// core can get there through the modules' synchronous callbacks — so the
// handlers below pass pulses and q-state indices, which are stable, and
// look the values up again after calling out.
func (c *nodeCore) vn(p int) *vnode {
	if i, ok := c.find(p); ok {
		return &c.vnodes[i]
	}
	return nil
}

// newVnode inserts the pulse-p vnode with its block of q-states.
func (c *nodeCore) newVnode(p int) *vnode {
	i, dup := c.find(p)
	if dup {
		panic(fmt.Sprintf("core: vnode %d created twice", p))
	}
	c.vnodes = append(c.vnodes, vnode{})
	copy(c.vnodes[i+1:], c.vnodes[i:])
	c.vnodes[i] = vnode{pulse: int32(p), parentPhys: -1, qoff: int32(len(c.qs))}
	c.qs = append(c.qs, make([]qstate, len(c.sched.Tracked(p)))...)
	return &c.vnodes[i]
}

// qi returns the index in c.qs of the pulse-p vnode's q-state for tracked
// pulse q. Indices stay valid for the rest of the run.
func (c *nodeCore) qi(p, q int) int {
	v := c.vn(p)
	if v == nil {
		panic(fmt.Sprintf("core: no vnode of pulse %d (q=%d)", p, q))
	}
	tracked := c.sched.Tracked(p)
	k := sort.SearchInts(tracked, q)
	if k == len(tracked) || tracked[k] != q {
		panic(fmt.Sprintf("core: vnode pulse %d has no q-state for %d", p, q))
	}
	return int(v.qoff) + k
}
