package reg

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/slab"
	"repro/internal/wire"
)

// SaveState implements wire.StateCodec: the table (session ids, then the
// rows verbatim), then the waiting invokers in arrival order.
func (m *Module) SaveState(e *wire.Enc) {
	m.t.Save(e)
	e.U32(uint32(len(m.inv)))
	for _, iv := range m.inv {
		e.I32(iv.ord)
		e.I32(int32(iv.child))
	}
}

// LoadState implements wire.StateCodec. A frame that fails leaves the
// module empty.
func (m *Module) LoadState(d *wire.Dec) {
	m.inv = m.inv[:0]
	m.t.Load(d)
	for slot := range m.t.Sess {
		for ci, tr := range m.t.Trees {
			if d.Failed() {
				break
			}
			r := m.t.At(slot, ci)
			if m.local(r) > free {
				d.Fail("reg: cluster %d session %d has local state %d", tr.ID, m.t.Sess[slot].ID, m.local(r))
			}
			for _, mark := range m.marks(r, ci) {
				if edgeMark(mark) > markWaiting {
					d.Fail("reg: cluster %d session %d has edge mark %d", tr.ID, m.t.Sess[slot].ID, mark)
				}
			}
		}
	}
	records := len(m.t.Sess) * len(m.t.Trees)
	nInv := int(d.U32())
	for i := 0; i < nInv && !d.Failed(); i++ {
		iv := invoker{ord: d.I32(), child: graph.NodeID(d.I32())}
		if d.Failed() {
			break
		}
		if iv.ord < 0 || int(iv.ord) >= records {
			d.Fail("reg: invoker on record %d of %d", iv.ord, records)
		} else if _, ok := slices.BinarySearch(m.t.Trees[int(iv.ord)%len(m.t.Trees)].Children, iv.child); !ok {
			d.Fail("reg: invoker %d is no child on record %d", iv.child, iv.ord)
		} else {
			m.inv = slab.Push(&m.lv.invs, m.inv, iv)
		}
	}
	if d.Failed() { // never leave the table and invokers out of step
		m.t.Reset()
		m.inv = m.inv[:0]
	}
}
