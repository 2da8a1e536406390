package core

import (
	"sort"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// pulseShell is what Awerbuch's α, β and γ (Appendix A) have in common:
// every node generates pulses 0..bound of the embedded synchronous
// algorithm, files incoming algorithm messages by pulse, counts each
// pulse's unacknowledged sends and enforces CONGEST. Each baseline embeds
// the shell — whose Init, Recv and Ack are its async.Handler methods — and
// supplies only its safety protocol: when a node may generate its next
// pulse.
//
// All per-pulse state is bound-indexed slices allocated once at
// construction (the pulse bound is known up front), not maps.
type pulseShell struct {
	algo  syncrun.Handler
	bound int
	proto safetyProtocol
	who   string // baseline name in CONGEST panics

	pulse     int
	recvd     [][]syncrun.Incoming
	sendAcked []int // pulse -> outstanding acks for algorithm sends
	cs        congestStamp
	api       shellAPI
}

// safetyProtocol is one baseline's pulse-safety logic.
type safetyProtocol interface {
	// checkSafe re-examines pulse p after it ran and after each ack of one
	// of its algorithm sends.
	checkSafe(n *async.Node, p int)
	// recvSafety handles one of the protocol's own messages.
	recvSafety(n *async.Node, from graph.NodeID, m async.Msg)
}

func newPulseShell(algo syncrun.Handler, bound int, who string, proto safetyProtocol) pulseShell {
	return pulseShell{
		algo:      algo,
		bound:     bound,
		proto:     proto,
		who:       who,
		recvd:     make([][]syncrun.Incoming, bound+1),
		sendAcked: make([]int, bound+1),
	}
}

// Init implements async.Handler: run pulse 0.
func (s *pulseShell) Init(n *async.Node) { s.runPulse(n, 0) }

// runPulse generates pulse p — the algorithm's Init at p = 0, otherwise its
// Pulse over the pulse-(p-1) messages in sender order — then hands p to
// the safety protocol. The shell's one API value serves every pulse: the
// algorithm only queues sends, so no evaluation starts inside another.
func (s *pulseShell) runPulse(n *async.Node, p int) {
	s.pulse = p
	s.api = shellAPI{Node: n, s: s, pulse: p, epoch: s.cs.begin(n.Degree())}
	if p == 0 {
		s.algo.Init(&s.api)
	} else {
		batch := s.recvd[p-1]
		sort.Slice(batch, func(i, j int) bool { return batch[i].From < batch[j].From })
		s.algo.Pulse(&s.api, p, batch)
	}
	s.proto.checkSafe(n, p)
}

// Recv implements async.Handler: algorithm messages are filed by pulse,
// everything else belongs to the safety protocol.
func (s *pulseShell) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	if m.Body.Kind != kindAlgo {
		s.proto.recvSafety(n, from, m)
		return
	}
	p, inner := m.Body.Unframe()
	s.recvd[p] = append(s.recvd[p], syncrun.Incoming{From: from, Body: inner})
}

// Ack implements async.Handler: algorithm-message acks gate safety.
func (s *pulseShell) Ack(n *async.Node, _ graph.NodeID, m async.Msg) {
	if m.Body.Kind != kindAlgo {
		return
	}
	p := int(m.Body.P)
	s.sendAcked[p]--
	s.proto.checkSafe(n, p)
}

// shellAPI is the synchronous API bound to one pulse of a baseline node:
// the embedded node serves everything but Send, which it shadows.
type shellAPI struct {
	*async.Node
	s     *pulseShell
	pulse int
	epoch int32
}

var _ syncrun.API = (*shellAPI)(nil)

func (x *shellAPI) Send(to graph.NodeID, body wire.Body) {
	x.s.cs.mark(x.Node, to, x.epoch, x.s.who)
	x.s.sendAcked[x.pulse]++
	x.Node.Send(to, async.Msg{Proto: protoAlgo, Stage: x.pulse, Body: frameAlgo(x.pulse, body)})
}

// runBaseline runs one baseline-synchronized handler per node; a nil
// adversary means seeded random delays.
func runBaseline(g *graph.Graph, adv async.Adversary, mk func(id graph.NodeID) async.Handler) async.Result {
	if adv == nil {
		adv = async.SeededRandom{Seed: 1}
	}
	return async.New(g, adv, mk).Run()
}
