package reg

import (
	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/slab"
	"repro/internal/wire"
)

// CloneModuleInto implements async.ModuleState: three flat slices, three
// copies into dst's retained capacity.
func (m *Module) CloneModuleInto(dst async.Module) {
	d := dst.(*Module)
	d.sessions = slab.Assign(&d.run.sessions, d.sessions, m.sessions)
	d.st = slab.Assign(&d.run.bytes, d.st, m.st)
	d.inv = slab.Assign(&d.run.invs, d.inv, m.inv)
}

// SaveState implements wire.StateCodec: the session table in slot order,
// the state rows verbatim, then the waiting invokers in arrival order.
// Configuration (proto, cover, callbacks, stage map) is reconstructed by
// the module's constructor, and the row layout derives from (cover, node);
// none of it travels.
func (m *Module) SaveState(e *wire.Enc) {
	e.U32(uint32(len(m.sessions)))
	for _, s := range m.sessions {
		e.Int(s)
	}
	e.Raw(m.st)
	e.U32(uint32(len(m.inv)))
	for _, iv := range m.inv {
		e.I32(iv.ord)
		e.I32(int32(iv.child))
	}
}

// LoadState implements wire.StateCodec. The module must know its node: the
// rows are only meaningful against that node's layout.
func (m *Module) LoadState(d *wire.Dec) {
	n := int(d.U32())
	m.sessions, m.st, m.inv = m.sessions[:0], m.st[:0], m.inv[:0]
	if n > 0 && !m.bound {
		d.Fail("reg: state for %d sessions loaded into a module that does not know its node", n)
		return
	}
	for i := 0; i < n && !d.Failed(); i++ {
		m.sessions = slab.Push(&m.run.sessions, m.sessions, d.Int())
	}
	rows := d.Raw(n * len(m.rowInit))
	m.st = append(m.run.bytes.Grow(m.st, len(rows)), rows...)
	for slot := 0; slot < n && !d.Failed(); slot++ {
		for ci := range m.trees {
			r := m.at(slot, ci)
			if m.local(r) > free {
				d.Fail("reg: cluster %d session %d has local state %d", m.trees[ci].id, m.sessions[slot], m.local(r))
			}
			for _, mark := range m.marks(r, ci) {
				if edgeMark(mark) > markWaiting {
					d.Fail("reg: cluster %d session %d has edge mark %d", m.trees[ci].id, m.sessions[slot], mark)
				}
			}
		}
	}
	nInv := int(d.U32())
	for i := 0; i < nInv && !d.Failed(); i++ {
		iv := invoker{ord: d.I32(), child: graph.NodeID(d.I32())}
		if !d.Failed() && (iv.ord < 0 || int(iv.ord) >= n*len(m.trees)) {
			d.Fail("reg: invoker on record %d of %d", iv.ord, n*len(m.trees))
		}
		if !d.Failed() {
			m.inv = slab.Push(&m.run.invs, m.inv, iv)
		}
	}
	if d.Failed() { // never leave rows and session table out of step
		m.sessions, m.st, m.inv = m.sessions[:0], m.st[:0], m.inv[:0]
	}
}
