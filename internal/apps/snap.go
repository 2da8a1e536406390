package apps

import (
	"sort"

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
// run-varying state travels. Maps are written in sorted key order so the
// frame bytes are a pure function of the logical state. A map is sized
// from its decoded count only up to the bytes left, since every entry
// takes at least one: a corrupted count must not allocate past the input.

var (
	_ wire.StateCodec = (*Flood)(nil)
	_ wire.StateCodec = (*Echo)(nil)
	_ wire.StateCodec = (*BFS)(nil)
	_ wire.StateCodec = (*TBFS)(nil)
	_ wire.StateCodec = (*Leader)(nil)
	_ wire.StateCodec = (*MST)(nil)
)

// --- shared helpers --------------------------------------------------------

// saveNodeSet writes a node-membership set (every stored value is true) as
// a sorted key list.
func saveNodeSet(e *wire.Enc, set map[graph.NodeID]bool) {
	keys := sortedKeys(set)
	e.U32(uint32(len(keys)))
	for _, v := range keys {
		e.I32(int32(v))
	}
}

// loadNodeSet reads a saveNodeSet list, refusing keys that do not ascend
// strictly so that every list it accepts saves back identically.
func loadNodeSet(d *wire.Dec) map[graph.NodeID]bool {
	n := int(d.U32())
	set := make(map[graph.NodeID]bool, min(n, d.Remaining()))
	for i, prev := 0, graph.NodeID(0); i < n && !d.Failed(); i++ {
		v := graph.NodeID(d.I32())
		if i > 0 && v <= prev {
			d.Fail("apps: node set key %d after %d", v, prev)
		}
		set[v], prev = true, v
	}
	return set
}

func sortedIntKeys[T any](m map[int]T) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// saveState writes the queue's pending messages per target, targets sorted.
func (s *sendQueue) saveState(e *wire.Enc) {
	targets := make([]graph.NodeID, 0, len(s.q))
	for to := range s.q {
		targets = append(targets, to)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	e.U32(uint32(len(targets)))
	for _, to := range targets {
		buf := s.q[to]
		e.I32(int32(to))
		e.U32(uint32(len(buf)))
		for _, b := range buf {
			e.Body(b)
		}
	}
}

// loadState reads a saveState queue, refusing targets that do not ascend
// strictly or hold no message, so that every queue it accepts saves back
// identically.
func (s *sendQueue) loadState(d *wire.Dec) {
	s.q = nil
	nTargets := int(d.U32())
	for i, prev := 0, graph.NodeID(0); i < nTargets && !d.Failed(); i++ {
		to := graph.NodeID(d.I32())
		cnt := int(d.U32())
		if (i > 0 && to <= prev) || cnt == 0 {
			d.Fail("apps: send queue target %d after %d with %d messages", to, prev, cnt)
		}
		prev = to
		for j := 0; j < cnt && !d.Failed(); j++ {
			b := d.Body()
			if !d.Failed() {
				s.Send(to, b)
			}
		}
	}
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
	saveNodeSet(e, h.probed)
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
	h.probed = loadNodeSet(d)
	h.out.loadState(d)
}

// --- Leader ----------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *Leader) SaveState(e *wire.Enc) {
	e.Int(h.epoch)
	e.Bool(h.candidate)
	e.Bool(h.done)
	keys := make([]lcKey, 0, len(h.st))
	for k := range h.st {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].cluster < keys[j].cluster
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		st := h.st[k]
		e.Int(k.level)
		e.I64(int64(k.cluster))
		e.Int(st.reports)
		e.I32(int32(st.minSeen))
		e.Bool(st.sent)
		e.Bool(st.began)
		e.Bool(st.verdictIn)
	}
	h.out.saveState(e)
}

// LoadState implements wire.StateCodec.
func (h *Leader) LoadState(d *wire.Dec) {
	h.epoch = d.Int()
	h.candidate = d.Bool()
	h.done = d.Bool()
	n := int(d.U32())
	h.st = make(map[lcKey]*leadState, min(n, d.Remaining()))
	for i := 0; i < n && !d.Failed(); i++ {
		k := lcKey{level: d.Int(), cluster: cover.ClusterID(d.I64())}
		st := &leadState{
			reports:   d.Int(),
			minSeen:   graph.NodeID(d.I32()),
			sent:      d.Bool(),
			began:     d.Bool(),
			verdictIn: d.Bool(),
		}
		if !d.Failed() {
			h.st[k] = st
		}
	}
	h.out.loadState(d)
}

// --- MST -------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *MST) SaveState(e *wire.Enc) {
	e.I32(int32(h.frag))
	e.I32(int32(h.parent))
	saveNodeSet(e, h.treeNbrs)
	e.Int(h.phase)
	e.Bool(h.fragDone)

	phases := sortedIntKeys(h.st)
	e.U32(uint32(len(phases)))
	for _, k := range phases {
		st := h.st[k]
		e.Int(k)
		tests := make([]graph.NodeID, 0, len(st.tests))
		for nb := range st.tests {
			tests = append(tests, nb)
		}
		sort.Slice(tests, func(i, j int) bool { return tests[i] < tests[j] })
		e.U32(uint32(len(tests)))
		for _, nb := range tests {
			e.I32(int32(nb))
			e.I32(int32(st.tests[nb]))
		}
		e.Int(st.moeReports)
		saveMSTEdge(e, st.best)
		e.Bool(st.reported)
		e.Bool(st.decided)
		saveMSTEdge(e, st.decision)
		e.Bool(st.decisionNon)
		e.I32(int32(st.sentConnect))
		saveNodeSet(e, st.connectIn)
		e.Bool(st.merged)
		e.Bool(st.pendingNF != nil)
		if st.pendingNF != nil {
			e.Int(st.pendingNF.Phase)
			e.I32(int32(st.pendingNF.Frag))
			e.I32(int32(st.pendingNFFrom))
		}
	}

	seqs := sortedIntKeys(h.bar)
	e.U32(uint32(len(seqs)))
	for _, k := range seqs {
		b := h.bar[k]
		e.Int(k)
		e.Int(b.reports)
		e.Bool(b.sent)
		e.Bool(b.ready)
		e.Bool(b.done)
	}
	h.out.saveState(e)
}

// LoadState implements wire.StateCodec.
func (h *MST) LoadState(d *wire.Dec) {
	h.frag = graph.NodeID(d.I32())
	h.parent = graph.NodeID(d.I32())
	h.treeNbrs = loadNodeSet(d)
	h.phase = d.Int()
	h.fragDone = d.Bool()

	nPhases := int(d.U32())
	h.st = make(map[int]*mstPhase, min(nPhases, d.Remaining()))
	for i := 0; i < nPhases && !d.Failed(); i++ {
		k := d.Int()
		st := &mstPhase{sentConnect: -1}
		nTests := int(d.U32())
		st.tests = make(map[graph.NodeID]graph.NodeID, min(nTests, d.Remaining()))
		for j := 0; j < nTests && !d.Failed(); j++ {
			nb := graph.NodeID(d.I32())
			st.tests[nb] = graph.NodeID(d.I32())
		}
		st.moeReports = d.Int()
		st.best = loadMSTEdge(d)
		st.reported = d.Bool()
		st.decided = d.Bool()
		st.decision = loadMSTEdge(d)
		st.decisionNon = d.Bool()
		st.sentConnect = graph.NodeID(d.I32())
		st.connectIn = loadNodeSet(d)
		st.merged = d.Bool()
		if d.Bool() {
			nf := mstNewFrag{Phase: d.Int(), Frag: graph.NodeID(d.I32())}
			st.pendingNF = &nf
			st.pendingNFFrom = graph.NodeID(d.I32())
		}
		if !d.Failed() {
			h.st[k] = st
		}
	}

	nBars := int(d.U32())
	h.bar = make(map[int]*mstBarrier, min(nBars, d.Remaining()))
	for i := 0; i < nBars && !d.Failed(); i++ {
		k := d.Int()
		b := &mstBarrier{
			reports: d.Int(),
			sent:    d.Bool(),
			ready:   d.Bool(),
			done:    d.Bool(),
		}
		if !d.Failed() {
			h.bar[k] = b
		}
	}
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
