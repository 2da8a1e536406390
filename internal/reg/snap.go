package reg

import (
	"slices"

	"repro/internal/wire"
)

// SaveState implements wire.StateCodec.
func (m *Module) SaveState(e *wire.Enc) { m.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (m *Module) LoadState(d *wire.Dec) { m.state(d.Coder()) }

// state codes the table (session ids, then the rows verbatim), then the
// waiting invokers in arrival order. A load refuses local states, edge
// marks and invokers no run writes; one that fails leaves the module
// empty.
func (m *Module) state(c *wire.Coder) {
	m.t.State(c)
	var t view // the layout a load's records are checked against
	if c.Loading() && len(m.t.Sess) > 0 {
		t = m.t.View()
	}
	for slot := 0; c.Loading() && !c.Failed() && slot < len(m.t.Sess); slot++ {
		for ci, tr := range t.Trees {
			r := t.At(slot, ci)
			if m.local(r) > free {
				c.Fail("reg: cluster %d session %d has local state %d", tr.ID, m.t.Sess[slot].ID, m.local(r))
			}
			for _, mark := range m.marks(&t, r, ci) {
				if edgeMark(mark) > markWaiting {
					c.Fail("reg: cluster %d session %d has edge mark %d", tr.ID, m.t.Sess[slot].ID, mark)
				}
			}
		}
	}
	records := len(m.t.Sess) * len(t.Trees)
	wire.List(c, &m.inv, &m.lv.invs, func(c *wire.Coder, iv *invoker) {
		c.I32(&iv.ord)
		wire.ID(c, &iv.child)
		switch {
		case !c.Loading() || c.Failed():
		case iv.ord < 0 || int(iv.ord) >= records:
			c.Fail("reg: invoker on record %d of %d", iv.ord, records)
		default:
			if _, ok := slices.BinarySearch(t.Children(int(iv.ord)%len(t.Trees)), iv.child); !ok {
				c.Fail("reg: invoker %d is no child on record %d", iv.child, iv.ord)
			}
		}
	})
	if c.Failed() { // never leave the table and invokers out of step
		m.t.Reset()
		m.inv = m.inv[:0]
	}
}
