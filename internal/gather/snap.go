package gather

import (
	"repro/internal/async"
	"repro/internal/wire"
)

// CloneModuleInto implements async.ModuleState: the table's two flat
// slices, copied into dst's retained capacity.
func (m *Module) CloneModuleInto(dst async.Module) { m.t.CloneInto(&dst.(*Module).t) }

// SaveState implements wire.StateCodec: the session table in slot order,
// each id followed by its callback state, then the rows verbatim.
func (m *Module) SaveState(e *wire.Enc) { m.t.Save(e) }

// LoadState implements wire.StateCodec. A frame that fails leaves the
// module empty.
func (m *Module) LoadState(d *wire.Dec) { m.t.Load(d) }

func saveSession(e *wire.Enc, s *session) {
	e.I32(s.confirmed)
	e.Bool(s.began)
	e.Bool(s.markedAll)
	e.Bool(s.fired)
}

func loadSession(d *wire.Dec, s *session) {
	s.confirmed = d.I32()
	s.began, s.markedAll, s.fired = loadFlag(d), loadFlag(d), loadFlag(d)
}

// loadFlag reads a flag SaveState wrote, refusing any byte but 0 and 1 so
// that every frame LoadState accepts saves back identically.
func loadFlag(d *wire.Dec) bool {
	b := d.U8()
	if b > 1 {
		d.Fail("gather: flag byte %d", b)
	}
	return b == 1
}
