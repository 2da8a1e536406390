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
// run-varying state travels. Each type codes its state once, in a state
// method its SaveState and LoadState both run through a wire.Coder.

var (
	_ wire.StateCodec = (*Flood)(nil)
	_ wire.StateCodec = (*Echo)(nil)
	_ wire.StateCodec = (*BFS)(nil)
	_ wire.StateCodec = (*TBFS)(nil)
	_ wire.StateCodec = (*Leader)(nil)
	_ wire.StateCodec = (*MST)(nil)
)

// --- shared helpers --------------------------------------------------------

// nodeSet codes an entry of a node-membership set (every stored value is
// true): the key alone.
func nodeSet(c *wire.Coder, v *graph.NodeID, in *bool) {
	wire.ID(c, v)
	*in = true
}

// state codes the queue's pending messages per target. A load refuses a
// target that holds no message, so that every queue it accepts saves back
// identically.
func (s *sendQueue) state(c *wire.Coder) {
	wire.Map(c, &s.q, cmp.Compare, func(c *wire.Coder, to *graph.NodeID, buf *[]wire.Body) {
		wire.ID(c, to)
		if wire.List(c, buf, nil, (*wire.Coder).Body); c.Loading() && len(*buf) == 0 {
			c.Fail("apps: send queue target %d holds no message", *to)
		}
	})
}

// --- Flood -----------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *Flood) SaveState(e *wire.Enc) { h.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (h *Flood) LoadState(d *wire.Dec) { h.state(d.Coder()) }

func (h *Flood) state(c *wire.Coder) { c.Bool(&h.seen) }

// --- Echo ------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *Echo) SaveState(e *wire.Enc) { h.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (h *Echo) LoadState(d *wire.Dec) { h.state(d.Coder()) }

func (h *Echo) state(c *wire.Coder) {
	wire.ID(c, &h.parent)
	c.Bool(&h.joined)
	c.Int(&h.pending)
	c.Int(&h.count)
}

// --- BFS -------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *BFS) SaveState(e *wire.Enc) { h.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (h *BFS) LoadState(d *wire.Dec) { h.state(d.Coder()) }

func (h *BFS) state(c *wire.Coder) {
	c.Bool(&h.set)
	c.Int(&h.res.Dist)
	wire.ID(c, &h.res.Parent)
	wire.ID(c, &h.res.Source)
}

// --- TBFS ------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *TBFS) SaveState(e *wire.Enc) { h.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (h *TBFS) LoadState(d *wire.Dec) { h.state(d.Coder()) }

func (h *TBFS) state(c *wire.Coder) {
	c.Int(&h.dist)
	wire.ID(c, &h.parent)
	wire.ID(c, &h.src)
	c.Int(&h.pending)
	c.Int(&h.children)
	c.Bool(&h.frontier)
	c.Bool(&h.reported)
	c.Bool(&h.isSource)
	h.out.state(c)
}

// --- Leader ----------------------------------------------------------------

func (a lcKey) cmp(b lcKey) int {
	return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.cluster, b.cluster))
}

// SaveState implements wire.StateCodec.
func (h *Leader) SaveState(e *wire.Enc) { h.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (h *Leader) LoadState(d *wire.Dec) { h.state(d.Coder()) }

func (h *Leader) state(c *wire.Coder) {
	c.Int(&h.epoch)
	c.Bool(&h.candidate)
	c.Bool(&h.done)
	wire.Map(c, &h.st, lcKey.cmp, func(c *wire.Coder, k *lcKey, p **leadState) {
		c.Int(&k.level)
		cluster := int64(k.cluster) // a cluster id travels in 64 bits
		c.I64(&cluster)
		k.cluster = cover.ClusterID(cluster)
		st := wire.Alloc(p)
		c.Int(&st.reports)
		wire.ID(c, &st.minSeen)
		c.Bool(&st.sent)
		c.Bool(&st.began)
		c.Bool(&st.verdictIn)
	})
	h.out.state(c)
}

// --- MST -------------------------------------------------------------------

// SaveState implements wire.StateCodec.
func (h *MST) SaveState(e *wire.Enc) { h.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (h *MST) LoadState(d *wire.Dec) { h.state(d.Coder()) }

func (h *MST) state(c *wire.Coder) {
	wire.ID(c, &h.frag)
	wire.ID(c, &h.parent)
	wire.Map(c, &h.treeNbrs, cmp.Compare, nodeSet)
	c.Int(&h.phase)
	c.Bool(&h.fragDone)
	wire.Map(c, &h.st, cmp.Compare, func(c *wire.Coder, k *int, p **mstPhase) {
		c.Int(k)
		st := wire.Alloc(p)
		wire.Map(c, &st.tests, cmp.Compare, func(c *wire.Coder, nb, frag *graph.NodeID) {
			wire.ID(c, nb)
			wire.ID(c, frag)
		})
		c.Int(&st.moeReports)
		st.best.state(c)
		c.Bool(&st.reported)
		c.Bool(&st.decided)
		st.decision.state(c)
		c.Bool(&st.decisionNon)
		wire.ID(c, &st.sentConnect)
		wire.Map(c, &st.connectIn, cmp.Compare, nodeSet)
		c.Bool(&st.merged)
		pending := st.pendingNF != nil
		if c.Bool(&pending); pending {
			nf := wire.Alloc(&st.pendingNF)
			c.Int(&nf.Phase)
			wire.ID(c, &nf.Frag)
			wire.ID(c, &st.pendingNFFrom)
		}
	})
	wire.Map(c, &h.bar, cmp.Compare, func(c *wire.Coder, k *int, p **mstBarrier) {
		c.Int(k)
		b := wire.Alloc(p)
		c.Int(&b.reports)
		c.Bool(&b.sent)
		c.Bool(&b.ready)
		c.Bool(&b.done)
	})
	h.out.state(c)
}

func (m *mstEdge) state(c *wire.Coder) {
	c.I64(&m.W)
	wire.ID(c, &m.U)
	wire.ID(c, &m.V)
	c.Bool(&m.None)
}
