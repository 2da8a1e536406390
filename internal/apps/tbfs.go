package apps

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// TBFS is the event-driven synchronous τ-thresholded (multi-source) BFS of
// Definition 4.2 with built-in termination detection (the §4.6 Approach 2
// convergecast): joins stop at distance τ; nodes at exactly distance τ
// probe their neighbors for unreached ones; an echo wave carries
// "my subtree is complete" plus the frontier bit back to each source,
// which outputs TBFSSourceDone. Reached nodes output TBFSResult; nodes
// beyond τ output nothing here (the asynchronous wrapper's checking stage,
// §4.1.2, tells them that their distance exceeds τ).
type TBFS struct {
	// Sources are the BFS sources.
	Sources []graph.NodeID
	// Threshold is τ >= 1.
	Threshold int
	// OnSourceDone, if set, fires when this node is a source whose echo
	// completed (used by the asynchronous wrapper's checking stage).
	OnSourceDone func(frontier bool)

	dist     int
	parent   graph.NodeID // join sent a join or probe to every other neighbor
	src      graph.NodeID
	pending  int  // unanswered joins/probes
	children int  // accepted children yet to report
	frontier bool // some node beyond τ exists below/next to us
	reported bool
	isSource bool
	out      sendQueue
}

// TBFSResult is the per-node output for reached nodes.
type TBFSResult struct {
	Dist   int
	Parent graph.NodeID
	Source graph.NodeID
}

// TBFSSourceDone is the additional source output carrying the Approach-2
// verdict: Frontier reports whether any node beyond the threshold exists
// adjacent to this source's BFS tree.
type TBFSSourceDone struct {
	Frontier bool
}

var _ syncrun.Handler = (*TBFS)(nil)

// Init implements syncrun.Handler.
func (h *TBFS) Init(n syncrun.API) {
	h.dist = -1
	h.parent = -1
	h.src = -1
	for _, s := range h.Sources {
		if n.ID() == s {
			h.isSource = true
			h.join(n, 0, -1, s)
		}
	}
	h.maybeEcho(n) // a source without neighbors is done at once
	h.out.Flush(n)
}

// join adopts distance d and floods further (or probes at the threshold).
func (h *TBFS) join(n syncrun.API, d int, parent, src graph.NodeID) {
	h.dist = d
	h.parent = parent
	h.src = src
	n.OutputBody(encTBFSOut(TBFSResult{Dist: d, Parent: parent, Source: src}))
	if d < h.Threshold {
		for _, nb := range n.Neighbors() {
			if nb.Node == parent {
				continue
			}
			h.out.Send(nb.Node, wire.Body{Kind: kindTBFSJoin, A: int64(src)})
			h.pending++
		}
	} else {
		for _, nb := range n.Neighbors() {
			if nb.Node == parent {
				continue
			}
			h.out.Send(nb.Node, wire.Tag(kindTBFSProbe))
			h.pending++
		}
	}
}

// Pulse implements syncrun.Handler.
func (h *TBFS) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	for _, in := range recvd {
		switch in.Body.Kind {
		case kindTBFSJoin:
			h.onJoin(n, in.From, graph.NodeID(in.Body.A), p)
		case kindTBFSAccept:
			h.pending--
			h.children++
		case kindTBFSReject:
			h.pending--
		case kindTBFSProbe:
			if h.dist >= 0 {
				if in.From != h.parent {
					h.pending-- // crossing probe answers ours
				} else {
					h.out.Send(in.From, wire.Body{Kind: kindTBFSProbeReply, A: wire.FromBool(true)})
				}
			} else {
				h.out.Send(in.From, wire.Body{Kind: kindTBFSProbeReply, A: wire.FromBool(false)})
			}
		case kindTBFSProbeReply:
			h.pending--
			if !wire.ToBool(in.Body.A) {
				h.frontier = true
			}
		case kindTBFSEcho:
			h.children--
			if wire.ToBool(in.Body.A) {
				h.frontier = true
			}
		default:
			panic(fmt.Sprintf("apps: TBFS node %d got kind %d", n.ID(), in.Body.Kind))
		}
	}
	h.maybeEcho(n)
	h.out.Flush(n)
}

func (h *TBFS) onJoin(n syncrun.API, from graph.NodeID, src graph.NodeID, p int) {
	if h.dist >= 0 {
		// Already reached. A crossing join answers ours; otherwise reject.
		if from != h.parent {
			h.pending--
		} else {
			h.out.Send(from, wire.Tag(kindTBFSReject))
		}
		return
	}
	h.join(n, p, from, src)
	h.out.Send(from, wire.Tag(kindTBFSAccept))
}

// maybeEcho reports completion up the BFS tree once all joins/probes are
// answered and all accepted children have echoed.
func (h *TBFS) maybeEcho(n syncrun.API) {
	if h.reported || h.dist < 0 || h.pending > 0 || h.children > 0 {
		return
	}
	h.reported = true
	if h.parent >= 0 {
		h.out.Send(h.parent, wire.Body{Kind: kindTBFSEcho, A: wire.FromBool(h.frontier)})
		return
	}
	// Source: the whole tree is done.
	if h.OnSourceDone != nil {
		h.OnSourceDone(h.frontier)
	}
	n.OutputBody(encTBFSSourceDone(TBFSSourceDone{Frontier: h.frontier}))
}

// Reached reports whether this node joined the BFS.
func (h *TBFS) Reached() bool { return h.dist >= 0 }

// Result returns the node's BFS result (valid only when Reached).
func (h *TBFS) Result() TBFSResult {
	return TBFSResult{Dist: h.dist, Parent: h.parent, Source: h.src}
}
