// Package async implements the asynchronous message-passing model of the
// paper (§1.1, Appendix B) as a deterministic discrete-event simulator:
//
//   - Message delays are chosen by a pluggable adversary and lie in (0, τ]
//     with τ = 1 (the normalized time unit, unknown to algorithms).
//   - Each node must wait for a link-level acknowledgment before injecting
//     the next message into the same directed link (Appendix B, "a subtlety
//     in message delays"). The link layer enforces this.
//   - When several subroutines want the same link, pending messages are
//     scheduled by stage priority (lower stage first, Lemma 2.5) and
//     round-robin across protocols within a stage (Lemma 2.2 / Cor 2.3).
//
// Algorithms are event-driven Handlers: they react to Init, Recv, and Ack
// events and may call Send and Output; they never see the clock.
package async

import (
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Proto identifies an algorithmic subroutine for fair link scheduling and
// per-protocol message accounting. Values are chosen by the application.
type Proto int32

// Msg is one network message. It is a plain value end to end: queuing,
// delivery, and acknowledgment never box the payload.
type Msg struct {
	// Proto tags the subroutine this message belongs to. The link layer
	// round-robins across protos within a stage.
	Proto Proto
	// Stage is the sequential-composition stage (Lemma 2.5). Lower stages
	// are always scheduled before higher stages on a contended link.
	Stage int
	// Body is the algorithm payload. Its Kind namespace is per Proto. If
	// it carries a segment, ownership transfers to the engine at Send: the
	// segment is recycled after the sender's Ack callback returns, and
	// receivers must copy its data out inside the delivery callback to
	// retain it (see package wire).
	Body wire.Body
}

// Handler is an event-driven node program. One Handler instance exists per
// node; it holds all per-node state. Handlers run only inside simulator
// callbacks, so they need no locking.
//
// A handler that also implements wire.StateCodec (and passes its
// StateCodecProbe, if it has one) can be checkpointed and run under
// ModeSpec, which copies it into a per-round clone built by the same mk
// through SaveState and LoadState (see spec.go). The clone's codec runs
// without an arena, so a Body in the state carries its segment handle and
// the clone shares the original's segments. The engine may call mk,
// Rebind and that copy concurrently for different nodes.
type Handler interface {
	// Init runs once at time 0, before any message is delivered.
	Init(n *Node)
	// Recv is invoked when a message arrives.
	Recv(n *Node, from graph.NodeID, m Msg)
	// Ack is invoked when the link-level acknowledgment for a previously
	// sent message returns to the sender (i.e. the message is known
	// delivered). Pulse-safety logic in the synchronizer depends on this.
	Ack(n *Node, to graph.NodeID, m Msg)
}

// NopAck can be embedded by handlers that do not care about acks.
type NopAck struct{}

// Ack implements Handler with a no-op.
func (NopAck) Ack(*Node, graph.NodeID, Msg) {}

// Node is the API surface a Handler sees: its identity, its local view of
// the topology (neighbor list only — nodes do not know the global graph),
// sending, and producing output.
type Node struct {
	id graph.NodeID
	// ctxIdx routes the node's effects: ctxDirect is the engine's direct
	// context (ModeSingle and merges), k > 0 is worker context wctx[k-1]
	// (exactly one worker owns a node inside a window, so the index is
	// stable for the window's duration; a shard engine routes every node to
	// wctx[0] for the whole run), ctxSwallow is the speculative
	// straddle-repair context. An index instead of a pointer keeps Node at
	// 16 bytes — the engine holds one Node per simulated node.
	ctxIdx int32
	sim    *Sim
}

// Context-index values for Node.ctxIdx.
const (
	ctxDirect  int32 = 0
	ctxSwallow int32 = -1
)

// ctx resolves the node's execution context.
func (n *Node) ctx() *execCtx {
	if n.ctxIdx == ctxDirect {
		return &n.sim.direct
	}
	if n.ctxIdx > 0 {
		return &n.sim.wctx[n.ctxIdx-1]
	}
	return &n.sim.swallowCtx
}

// ID returns this node's identifier.
func (n *Node) ID() graph.NodeID { return n.id }

// Neighbors returns the IDs of adjacent nodes in ascending order. The slice
// must not be mutated.
func (n *Node) Neighbors() []graph.Neighbor { return n.sim.g.Neighbors(n.id) }

// Degree returns the node's degree.
func (n *Node) Degree() int { return n.sim.g.Degree(n.id) }

// Send enqueues m on the directed link to neighbor `to`. Panics if `to` is
// not a neighbor: algorithms in this model can only talk over graph edges.
func (n *Node) Send(to graph.NodeID, m Msg) { n.ctx().send(n.id, to, m) }

// Output records this node's final output for the problem being solved.
// The simulator's time-to-output clock stops when the last node outputs.
// Calling Output again overwrites the value but does not move the clock
// backwards. Output is the convenience for int, int64, bool and
// graph.NodeID values, stored as typed wire.Body entries; any other value
// panics. Struct results go through OutputBody with a registered outval
// kind.
func (n *Node) Output(v any) { n.OutputBody(outval.Encode(n.id, v)) }

// OutputBody records this node's final output as a typed wire.Body —
// the allocation-free path. The Kind must be non-zero and either one of
// outval's reserved primitive kinds or a kind with a registered outval
// decoder, so Result materialization can produce the user-facing value.
func (n *Node) OutputBody(b wire.Body) { n.ctx().setOutputBody(n.id, b) }

// HasOutput reports whether this node has already produced output. The
// answer is routed through the node's execution context: a speculative
// round sees its own not-yet-committed Output calls, exactly as the serial
// engine would at the same point in the event order.
func (n *Node) HasOutput() bool { return n.ctx().hasOutput(n.id) }

// NeighborIndex returns the position of `to` in this node's neighbor list,
// or -1 if `to` is not a neighbor. Dense per-neighbor state (CONGEST
// stamps, per-link counters) indexes by this instead of hashing NodeIDs.
func (n *Node) NeighborIndex(to graph.NodeID) int {
	return n.sim.g.NeighborIndex(n.id, to)
}

// Arena returns the simulation's segment arena. Handlers that send
// variable-length payloads carve Body.Seg from it; the engine returns each
// sent segment to the arena when the message's lifecycle ends (after the
// sender's Ack callback), so steady-state traffic allocates nothing.
func (n *Node) Arena() *wire.Arena { return &n.sim.arena }
