// Quickstart: write an event-driven synchronous algorithm once, run it in
// lockstep rounds, then run the *same code* asynchronously under the
// paper's deterministic synchronizer and check the outputs agree.
package main

import (
	"fmt"
	"os"

	dsync "repro"
)

// hops is a tiny synchronous algorithm: node 0 floods a token; every node
// outputs the pulse at which the token reached it (= its BFS distance).
// Note the event-driven style (Appendix B of the paper): no node ever
// references the round number except through the pulse of a reception.
//
// Messages are typed wire bodies: a Kind tag plus fixed integer words,
// never a boxed interface. A pure signal like this token needs only the
// tag.
type hops struct{ seen bool }

const tokenKind dsync.Kind = 1

func (h *hops) Init(n dsync.API) {
	if n.ID() == 0 {
		h.seen = true
		n.Output(0)
		for _, nb := range n.Neighbors() {
			n.Send(nb.Node, dsync.Tag(tokenKind))
		}
	}
}

func (h *hops) Pulse(n dsync.API, p int, recvd []dsync.Incoming) {
	if h.seen || len(recvd) == 0 {
		return
	}
	h.seen = true
	n.Output(p)
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, dsync.Tag(tokenKind))
	}
}

func main() {
	g := dsync.Grid(4, 6)
	mk := func(dsync.NodeID) dsync.Algorithm { return &hops{} }

	// 1. Synchronous world: lockstep rounds.
	sres := dsync.RunSync(g, mk)
	fmt.Printf("synchronous:  T(A)=%d rounds, M(A)=%d messages\n", sres.T, sres.M)

	// 2. Asynchronous world: adversarial delays, same algorithm, same
	// outputs — the synchronizer guarantees it (Theorem 5.2).
	ares := dsync.Synchronize(g, sres.Rounds+2, dsync.RandomDelays(42), mk)
	fmt.Printf("asynchronous: time=%.1f, msgs=%d\n", ares.Time, ares.Msgs)

	same := sameOutputs(sres.Outputs, ares.Outputs)
	fmt.Printf("outputs identical across worlds: %v (%d nodes)\n", same, len(sres.Outputs))

	// 3. No pulse bound known up front (Theorem 5.4): the synchronizer
	// doubles its guess until an attempt completes — here under another
	// adversary, with the same outputs again.
	ures, bound := dsync.SynchronizeUnknownBound(g, dsync.FixedDelays(1), mk)
	usame := sameOutputs(sres.Outputs, ures.Outputs)
	fmt.Printf("unknown bound: discovered bound=%d, time=%.1f, msgs=%d, outputs identical: %v\n",
		bound, ures.Time, ures.Msgs, usame)

	for v := 0; v < g.N(); v++ {
		fmt.Printf("node %2d: distance %v\n", v, ares.Outputs[dsync.NodeID(v)])
	}
	if !same || !usame {
		os.Exit(1)
	}
}

func sameOutputs(want, got map[dsync.NodeID]any) bool {
	if len(want) != len(got) {
		return false
	}
	for v, w := range want {
		if got[v] != w {
			return false
		}
	}
	return true
}
