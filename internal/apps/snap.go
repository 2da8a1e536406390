package apps

import (
	"cmp"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/wire"
)

// State codecs (wire.StateCodec) for every algorithm in this package: the
// engine state plane serializes each handler's complete mutable state at a
// pulse (or event) boundary and reloads it into a freshly constructed
// handler. Configuration fields set by the constructor (Sources, Threshold,
// Covers, Barrier, Weights, callbacks) stay out of the stream — the
// restoring side rebuilds handlers with the same constructor, so only the
// run-varying state travels. Maps go through wire.SaveMap/LoadMap.

var (
	_ wire.StateCodec = (*Flood)(nil)
	_ wire.StateCodec = (*Echo)(nil)
	_ wire.StateCodec = (*BFS)(nil)
	_ wire.StateCodec = (*TBFS)(nil)
	_ wire.StateCodec = (*Leader)(nil)
	_ wire.StateCodec = (*MST)(nil)
)

// --- shared helpers --------------------------------------------------------

// putNode and getNode are the entry codec of a node-membership set (every
// stored value is true): the key alone.
func putNode(e *wire.Enc, v graph.NodeID, _ bool) { e.I32(int32(v)) }

func getNode(d *wire.Dec) (graph.NodeID, bool) { return graph.NodeID(d.I32()), true }

// saveState writes the queue's pending messages per target.
func (s *sendQueue) saveState(e *wire.Enc) {
	wire.SaveMap(e, s.q, cmp.Compare, func(e *wire.Enc, to graph.NodeID, buf []wire.Body) {
		e.I32(int32(to))
		e.U32(uint32(len(buf)))
		for _, b := range buf {
			e.Body(b)
		}
	})
}

// loadState reads a saveState queue, refusing a target that holds no
// message, so that every queue it accepts saves back identically.
func (s *sendQueue) loadState(d *wire.Dec) {
	s.q = wire.LoadMap(d, cmp.Compare, func(d *wire.Dec) (graph.NodeID, []wire.Body) {
		to := graph.NodeID(d.I32())
		cnt := int(d.U32())
		if cnt == 0 {
			d.Fail("apps: send queue target %d holds no message", to)
		}
		var buf []wire.Body
		for j := 0; j < cnt && !d.Failed(); j++ {
			buf = append(buf, d.Body())
		}
		return to, buf
	})
}

// --- Flood -----------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *Flood) SaveState(e *wire.Enc) { e.Bool(h.seen) }

// LoadState implements wire.StateCodec.
func (h *Flood) LoadState(d *wire.Dec) { h.seen = d.Bool() }

// --- Echo ------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *Echo) SaveState(e *wire.Enc) {
	e.I32(int32(h.parent))
	e.Bool(h.joined)
	e.Int(h.pending)
	e.Int(h.count)
}

// LoadState implements wire.StateCodec.
func (h *Echo) LoadState(d *wire.Dec) {
	h.parent = graph.NodeID(d.I32())
	h.joined = d.Bool()
	h.pending = d.Int()
	h.count = d.Int()
}

// --- BFS -------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *BFS) SaveState(e *wire.Enc) {
	e.Bool(h.set)
	e.Int(h.res.Dist)
	e.I32(int32(h.res.Parent))
	e.I32(int32(h.res.Source))
}

// LoadState implements wire.StateCodec.
func (h *BFS) LoadState(d *wire.Dec) {
	h.set = d.Bool()
	h.res.Dist = d.Int()
	h.res.Parent = graph.NodeID(d.I32())
	h.res.Source = graph.NodeID(d.I32())
}

// --- TBFS ------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *TBFS) SaveState(e *wire.Enc) {
	e.Int(h.dist)
	e.I32(int32(h.parent))
	e.I32(int32(h.src))
	e.Int(h.pending)
	e.Int(h.children)
	e.Bool(h.frontier)
	e.Bool(h.reported)
	e.Bool(h.isSource)
	h.out.saveState(e)
}

// LoadState implements wire.StateCodec.
func (h *TBFS) LoadState(d *wire.Dec) {
	h.dist = d.Int()
	h.parent = graph.NodeID(d.I32())
	h.src = graph.NodeID(d.I32())
	h.pending = d.Int()
	h.children = d.Int()
	h.frontier = d.Bool()
	h.reported = d.Bool()
	h.isSource = d.Bool()
	h.out.loadState(d)
}

// --- Leader ----------------------------------------------------------------

func (a lcKey) cmp(b lcKey) int {
	return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.cluster, b.cluster))
}

// SaveState implements wire.StateCodec.
func (h *Leader) SaveState(e *wire.Enc) {
	e.Int(h.epoch)
	e.Bool(h.candidate)
	e.Bool(h.done)
	wire.SaveMap(e, h.st, lcKey.cmp, func(e *wire.Enc, k lcKey, st *leadState) {
		e.Int(k.level)
		e.I64(int64(k.cluster))
		e.Int(st.reports)
		e.I32(int32(st.minSeen))
		e.Bool(st.sent)
		e.Bool(st.began)
		e.Bool(st.verdictIn)
	})
	h.out.saveState(e)
}

// LoadState implements wire.StateCodec.
func (h *Leader) LoadState(d *wire.Dec) {
	h.epoch = d.Int()
	h.candidate = d.Bool()
	h.done = d.Bool()
	h.st = wire.LoadMap(d, lcKey.cmp, func(d *wire.Dec) (lcKey, *leadState) {
		return lcKey{level: d.Int(), cluster: cover.ClusterID(d.I64())}, &leadState{
			reports:   d.Int(),
			minSeen:   graph.NodeID(d.I32()),
			sent:      d.Bool(),
			began:     d.Bool(),
			verdictIn: d.Bool(),
		}
	})
	h.out.loadState(d)
}

// --- MST -------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *MST) SaveState(e *wire.Enc) {
	e.I32(int32(h.frag))
	e.I32(int32(h.parent))
	wire.SaveMap(e, h.treeNbrs, cmp.Compare, putNode)
	e.Int(h.phase)
	e.Bool(h.fragDone)
	wire.SaveMap(e, h.st, cmp.Compare, func(e *wire.Enc, k int, st *mstPhase) {
		e.Int(k)
		wire.SaveMap(e, st.tests, cmp.Compare, func(e *wire.Enc, nb, frag graph.NodeID) {
			e.I32(int32(nb))
			e.I32(int32(frag))
		})
		e.Int(st.moeReports)
		saveMSTEdge(e, st.best)
		e.Bool(st.reported)
		e.Bool(st.decided)
		saveMSTEdge(e, st.decision)
		e.Bool(st.decisionNon)
		e.I32(int32(st.sentConnect))
		wire.SaveMap(e, st.connectIn, cmp.Compare, putNode)
		e.Bool(st.merged)
		e.Bool(st.pendingNF != nil)
		if st.pendingNF != nil {
			e.Int(st.pendingNF.Phase)
			e.I32(int32(st.pendingNF.Frag))
			e.I32(int32(st.pendingNFFrom))
		}
	})
	wire.SaveMap(e, h.bar, cmp.Compare, func(e *wire.Enc, k int, b *mstBarrier) {
		e.Int(k)
		e.Int(b.reports)
		e.Bool(b.sent)
		e.Bool(b.ready)
		e.Bool(b.done)
	})
	h.out.saveState(e)
}

// LoadState implements wire.StateCodec.
func (h *MST) LoadState(d *wire.Dec) {
	h.frag = graph.NodeID(d.I32())
	h.parent = graph.NodeID(d.I32())
	h.treeNbrs = wire.LoadMap(d, cmp.Compare, getNode)
	h.phase = d.Int()
	h.fragDone = d.Bool()
	h.st = wire.LoadMap(d, cmp.Compare, func(d *wire.Dec) (int, *mstPhase) {
		k := d.Int()
		st := &mstPhase{
			tests: wire.LoadMap(d, cmp.Compare, func(d *wire.Dec) (graph.NodeID, graph.NodeID) {
				return graph.NodeID(d.I32()), graph.NodeID(d.I32())
			}),
			moeReports:  d.Int(),
			best:        loadMSTEdge(d),
			reported:    d.Bool(),
			decided:     d.Bool(),
			decision:    loadMSTEdge(d),
			decisionNon: d.Bool(),
			sentConnect: graph.NodeID(d.I32()),
			connectIn:   wire.LoadMap(d, cmp.Compare, getNode),
			merged:      d.Bool(),
		}
		if d.Bool() {
			st.pendingNF = &mstNewFrag{Phase: d.Int(), Frag: graph.NodeID(d.I32())}
			st.pendingNFFrom = graph.NodeID(d.I32())
		}
		return k, st
	})
	h.bar = wire.LoadMap(d, cmp.Compare, func(d *wire.Dec) (int, *mstBarrier) {
		return d.Int(), &mstBarrier{
			reports: d.Int(),
			sent:    d.Bool(),
			ready:   d.Bool(),
			done:    d.Bool(),
		}
	})
	h.out.loadState(d)
}

func saveMSTEdge(e *wire.Enc, m mstEdge) {
	e.I64(m.W)
	e.I32(int32(m.U))
	e.I32(int32(m.V))
	e.Bool(m.None)
}

func loadMSTEdge(d *wire.Dec) mstEdge {
	return mstEdge{
		W:    d.I64(),
		U:    graph.NodeID(d.I32()),
		V:    graph.NodeID(d.I32()),
		None: d.Bool(),
	}
}
