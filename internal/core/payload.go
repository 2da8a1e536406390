package core

import (
	"repro/internal/async"
	"repro/internal/wire"
)

// Protocol tags used by the synchronizer. Registration and barrier modules
// get one proto per cover level on top of these bases.
const (
	// protoAlgo carries algorithm messages and their chosen/declined
	// replies (the execution forest's edges).
	protoAlgo async.Proto = 1
	// protoTree carries safety-status reports and Go-Ahead propagation on
	// the execution forest.
	protoTree async.Proto = 2
	// protoRegBase + coverLevel carries §3.2 registration traffic.
	protoRegBase async.Proto = 100
	// protoBarrierBase + coverLevel carries §4.2 originator barriers.
	protoBarrierBase async.Proto = 200
)

// Wire kinds of every payload this package puts on a link. The main
// synchronizer and the α/β/γ baselines share one namespace: each routes by
// kind inside a single Recv, and distinct values keep the decode
// unambiguous even for handlers that see several message families.
const (
	// kindAlgo is one synchronous-algorithm message: sent by virtual node
	// (sender, P), creating or feeding virtual node (receiver, P+1). It is
	// a framed payload (wire.Frame): P carries the pulse, Sub the embedded
	// algorithm's own kind, and the words/segment pass through untouched.
	kindAlgo wire.Kind = 1
	// kindReply answers a kindAlgo message: whether the receiver chose the
	// sender as its execution-forest parent. A = pulse (echoing the algo
	// message's), B = chosen.
	kindReply wire.Kind = 2
	// kindStatus is a safety-convergecast report: the sender's virtual
	// node of pulse B reports its subtree's Q-status to its
	// execution-forest parent of pulse B-1. A = Q, B = child pulse,
	// C = ready (non-Q-empty and Q-safe; !ready = Q-empty, which per
	// §4.1.2 also implies Q-safe).
	kindStatus wire.Kind = 3
	// kindGA propagates Go-Ahead(Q) down the execution forest; the
	// receiver's virtual node has pulse B. A = Q, B = child pulse.
	kindGA wire.Kind = 4

	// kindAlphaSafe is α's SAFE(p) flood; A = pulse.
	kindAlphaSafe wire.Kind = 5
	// kindBetaSafeUp is β's subtree-safe convergecast; A = pulse.
	kindBetaSafeUp wire.Kind = 6
	// kindBetaAdvance is β's advance broadcast; A = the pulse to run.
	kindBetaAdvance wire.Kind = 7

	// γ tree traffic; A = cluster index, B = pulse (kindGammaCSafe crosses
	// a designated inter-cluster edge and carries only the pulse).
	kindGammaP1Up        wire.Kind = 8
	kindGammaClusterSafe wire.Kind = 9
	kindGammaCSafe       wire.Kind = 10
	kindGammaP2Up        wire.Kind = 11
	kindGammaAdvance     wire.Kind = 12
)

// frameAlgo wraps one embedded-algorithm payload as a pulse-tagged
// kindAlgo message (zero-copy; see wire.Frame). Algorithm payloads must be
// seg-free: the synchronizer retains them until Go-Ahead evaluates the
// pulse, far past the carrying message's lifecycle, so an arena-backed
// segment would dangle.
func frameAlgo(pulse int, body wire.Body) wire.Body {
	if !body.Seg.IsZero() {
		panic("core: synchronized algorithm payloads must not carry segments")
	}
	return wire.Frame(kindAlgo, pulse, body)
}

// replyMsg answers an algorithm message: whether the receiver chose the
// sender as its execution-forest parent. Pulse echoes the algo message's.
type replyMsg struct {
	Pulse  int
	Chosen bool
}

func encReply(m replyMsg) wire.Body {
	return wire.Body{Kind: kindReply, A: int64(m.Pulse), B: wire.FromBool(m.Chosen)}
}

func decReply(b wire.Body) replyMsg {
	return replyMsg{Pulse: int(b.A), Chosen: wire.ToBool(b.B)}
}

// statusMsg is a safety-convergecast report: the sender's virtual node of
// pulse ChildPulse reports its subtree's Q-status (ready = non-Q-empty and
// Q-safe; !Ready = Q-empty, which per §4.1.2 also implies Q-safe) to its
// execution-forest parent of pulse ChildPulse-1.
type statusMsg struct {
	Q          int
	ChildPulse int
	Ready      bool
}

func encStatus(m statusMsg) wire.Body {
	return wire.Body{Kind: kindStatus, A: int64(m.Q), B: int64(m.ChildPulse), C: wire.FromBool(m.Ready)}
}

func decStatus(b wire.Body) statusMsg {
	return statusMsg{Q: int(b.A), ChildPulse: int(b.B), Ready: wire.ToBool(b.C)}
}

// gaMsg propagates Go-Ahead(Q) down the execution forest; the receiver's
// virtual node has pulse ChildPulse.
type gaMsg struct {
	Q          int
	ChildPulse int
}

func encGA(m gaMsg) wire.Body {
	return wire.Body{Kind: kindGA, A: int64(m.Q), B: int64(m.ChildPulse)}
}

func decGA(b wire.Body) gaMsg {
	return gaMsg{Q: int(b.A), ChildPulse: int(b.B)}
}
