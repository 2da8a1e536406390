package gather

import "repro/internal/wire"

// SaveState implements wire.StateCodec: the session table in slot order,
// each id followed by its callback state, then the rows verbatim.
func (m *Module) SaveState(e *wire.Enc) { m.t.State(e.Coder()) }

// LoadState implements wire.StateCodec. A frame that fails leaves the
// module empty.
func (m *Module) LoadState(d *wire.Dec) { m.t.State(d.Coder()) }

func sessionState(c *wire.Coder, s *session) {
	c.I32(&s.confirmed)
	c.Bool(&s.began)
	c.Bool(&s.markedAll)
	c.Bool(&s.fired)
}
