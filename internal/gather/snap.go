package gather

import (
	"repro/internal/async"
	"repro/internal/wire"
)

// CloneModuleInto implements async.ModuleState: the run state is two flat
// slices, so a clone is two copies into dst's retained capacity.
func (m *Module) CloneModuleInto(dst async.Module) {
	d := dst.(*Module)
	if m.bound && !d.bound {
		d.bind(m.me)
	}
	d.sess = append(d.sess[:0], m.sess...)
	d.st = append(d.st[:0], m.st...)
}

// SaveState implements wire.StateCodec: the session table in slot order,
// then the state rows verbatim. The cover, proto, callbacks, and stage map
// are constructor-owned, and the row layout derives from (cover, node);
// none of it travels.
func (m *Module) SaveState(e *wire.Enc) {
	e.U32(uint32(len(m.sess)))
	for i := range m.sess {
		ns := &m.sess[i]
		e.Int(ns.id)
		e.I32(ns.confirmed)
		e.Bool(ns.began)
		e.Bool(ns.markedAll)
		e.Bool(ns.fired)
	}
	e.Raw(m.st)
}

// LoadState implements wire.StateCodec. The module must know its node
// (Rebind runs first on a restored engine): the rows are only meaningful
// against that node's layout.
func (m *Module) LoadState(d *wire.Dec) {
	n := int(d.U32())
	m.sess = m.sess[:0]
	m.st = m.st[:0]
	if n > 0 && !m.bound {
		d.Fail("gather: state for %d sessions loaded into a module that does not know its node", n)
		return
	}
	for i := 0; i < n && !d.Failed(); i++ {
		ns := sessionState{
			id:        d.Int(),
			confirmed: d.I32(),
			began:     d.Bool(),
			markedAll: d.Bool(),
			fired:     d.Bool(),
		}
		if !d.Failed() {
			m.sess = append(m.sess, ns)
		}
	}
	m.st = append(m.st, d.Raw(len(m.sess)*m.stride)...)
	if d.Failed() { // never leave rows and session table out of step
		m.sess, m.st = m.sess[:0], m.st[:0]
	}
}
