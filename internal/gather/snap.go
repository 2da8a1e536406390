package gather

import "repro/internal/wire"

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
	s.began, s.markedAll, s.fired = d.Bool(), d.Bool(), d.Bool()
}
