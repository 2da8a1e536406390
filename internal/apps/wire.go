package apps

import (
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Wire kinds of every algorithm in this package. Each algorithm owns its
// own namespace (one algorithm per run; under the synchronizer the kind
// rides in the frame's Sub field), but the values are kept globally
// distinct anyway so mixed traces stay unambiguous when debugging.
const (
	kindFlood     wire.Kind = 1 // Flood token (signal)
	kindEchoToken wire.Kind = 2 // Echo join token (signal)
	kindEchoCount wire.Kind = 3 // Echo subtree count; A = size

	kindBFSJoin wire.Kind = 10 // BFS join proposal; A = claimed source

	kindTBFSJoin       wire.Kind = 20 // A = source
	kindTBFSAccept     wire.Kind = 21 // signal
	kindTBFSReject     wire.Kind = 22 // signal
	kindTBFSProbe      wire.Kind = 23 // signal
	kindTBFSProbeReply wire.Kind = 24 // A = reached
	kindTBFSEcho       wire.Kind = 25 // A = frontier

	kindLeadUp   wire.Kind = 30 // A = level, B = cluster, C = min
	kindLeadDown wire.Kind = 31 // A = level, B = cluster, C = min, D = isLeader

	kindMSTTest     wire.Kind = 40 // A = phase, B = fragment
	kindMSTMOE      wire.Kind = 41 // A = phase<<1|none, B = weight, C = U, D = V
	kindMSTDecision wire.Kind = 42 // same layout as kindMSTMOE
	kindMSTConnect  wire.Kind = 43 // A = phase
	kindMSTNewFrag  wire.Kind = 44 // A = phase, B = fragment
	kindMSTBarUp    wire.Kind = 45 // A = barrier sequence
	kindMSTBarDown  wire.Kind = 46 // A = barrier sequence
)

// Output kinds: fixed-size per-node results encoded as typed Bodies so the
// engines store them in their dense output arrays (no interface boxing at
// Output time; outval decodes the structs only at the Result
// boundary). Output kinds share one global namespace across packages —
// outval's registry — so they live in a high range of their own.
const (
	// kindOutBFS carries a BFSResult: A = dist, B = parent, C = source.
	kindOutBFS wire.Kind = 0x7E01
	// kindOutTBFS carries a TBFSResult with the same layout.
	kindOutTBFS wire.Kind = 0x7E02
	// kindOutTBFSSourceDone carries a TBFSSourceDone: A = frontier.
	kindOutTBFSSourceDone wire.Kind = 0x7E03
	// kindOutMST carries an MSTResult: A = fragment, B = parent.
	kindOutMST wire.Kind = 0x7E04
)

func init() {
	outval.Register(kindOutBFS, func(b wire.Body) BFSResult {
		return BFSResult{Dist: int(b.A), Parent: graph.NodeID(b.B), Source: graph.NodeID(b.C)}
	})
	outval.Register(kindOutTBFS, func(b wire.Body) TBFSResult {
		return TBFSResult{Dist: int(b.A), Parent: graph.NodeID(b.B), Source: graph.NodeID(b.C)}
	})
	outval.Register(kindOutTBFSSourceDone, func(b wire.Body) TBFSSourceDone {
		return TBFSSourceDone{Frontier: wire.ToBool(b.A)}
	})
	outval.Register(kindOutMST, func(b wire.Body) MSTResult {
		return MSTResult{Frag: graph.NodeID(b.A), Parent: graph.NodeID(b.B)}
	})
}

func encBFSOut(r BFSResult) wire.Body {
	return wire.Body{Kind: kindOutBFS, A: int64(r.Dist), B: int64(r.Parent), C: int64(r.Source)}
}

func encTBFSOut(r TBFSResult) wire.Body {
	return wire.Body{Kind: kindOutTBFS, A: int64(r.Dist), B: int64(r.Parent), C: int64(r.Source)}
}

func encTBFSSourceDone(r TBFSSourceDone) wire.Body {
	return wire.Body{Kind: kindOutTBFSSourceDone, A: wire.FromBool(r.Frontier)}
}

func encMSTOut(r MSTResult) wire.Body {
	return wire.Body{Kind: kindOutMST, A: int64(r.Frag), B: int64(r.Parent)}
}

// --- leader codec ----------------------------------------------------------

func encLeadUp(m leadUp) wire.Body {
	return wire.Body{Kind: kindLeadUp, A: int64(m.Level), B: int64(m.Cluster), C: int64(m.Min)}
}

func decLeadUp(b wire.Body) leadUp {
	return leadUp{Level: int(b.A), Cluster: cover.ClusterID(b.B), Min: graph.NodeID(b.C)}
}

func encLeadDown(m leadDown) wire.Body {
	return wire.Body{Kind: kindLeadDown, A: int64(m.Level), B: int64(m.Cluster),
		C: int64(m.Min), D: wire.FromBool(m.IsLeader)}
}

func decLeadDown(b wire.Body) leadDown {
	return leadDown{Level: int(b.A), Cluster: cover.ClusterID(b.B),
		Min: graph.NodeID(b.C), IsLeader: wire.ToBool(b.D)}
}

// --- MST codec -------------------------------------------------------------

// encMSTEdge packs an MOE candidate with its phase: the None bit shares A
// with the phase (a None edge's W/U/V are meaningless and encode as zero).
func encMSTEdge(k wire.Kind, phase int, e mstEdge) wire.Body {
	a := int64(phase) << 1
	if e.None {
		return wire.Body{Kind: k, A: a | 1}
	}
	return wire.Body{Kind: k, A: a, B: e.W, C: int64(e.U), D: int64(e.V)}
}

func decMSTEdge(b wire.Body) (phase int, e mstEdge) {
	phase = int(b.A >> 1)
	if b.A&1 != 0 {
		return phase, mstEdge{None: true}
	}
	return phase, mstEdge{W: b.B, U: graph.NodeID(b.C), V: graph.NodeID(b.D)}
}
