package async

import "repro/internal/wire"

// StateCodecProbe is an optional refinement for composite handlers whose
// state-plane support depends on their runtime composition: a Mux is only
// as serializable as the modules registered on it, which the type system
// cannot see. The engine consults the probe before trusting a handler's
// wire.StateCodec methods, for a Snapshot and for ModeSpec's per-round
// clones alike — a failing probe turns Snapshot into a clean error and
// ModeSpec into the conservative fallback instead of a panic inside
// SaveState.
type StateCodecProbe interface {
	// StateCodecOK reports whether the handler's complete state is
	// serializable right now.
	StateCodecOK() bool
}

// codecOf returns v's state codec, or false if v has none or fails its
// StateCodecProbe.
func codecOf(v any) (wire.StateCodec, bool) {
	sc, ok := v.(wire.StateCodec)
	if pr, probed := v.(StateCodecProbe); ok && probed && !pr.StateCodecOK() {
		return nil, false
	}
	return sc, ok
}

// Rebinder is an optional handler/module interface for handlers that need
// their *Node before any callback: the engine calls Rebind exactly once on
// every handler it builds (New, Reset, and ModeSpec's clone targets),
// before Init and before any Restore loads state into it. A module that
// lays its state out by its node's position in shared tables binds here.
type Rebinder interface {
	Rebind(n *Node)
}

var (
	_ wire.StateCodec = (*Mux)(nil)
	_ StateCodecProbe = (*Mux)(nil)
	_ Rebinder        = (*Mux)(nil)
)

// StateCodecOK implements StateCodecProbe: every registered module must
// implement wire.StateCodec (and pass its own probe, if it has one). A
// module's LoadState replaces its state rather than filling in a fresh
// module: Sim.Restore loads into the modules a run already has, and
// ModeSpec into clone targets that ran earlier rounds.
func (x *Mux) StateCodecOK() bool {
	for _, mod := range x.mods {
		if _, ok := codecOf(mod); !ok {
			return false
		}
	}
	return true
}

// SaveState implements wire.StateCodec.
func (x *Mux) SaveState(e *wire.Enc) { x.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (x *Mux) LoadState(d *wire.Dec) { x.state(d.Coder()) }

// state codes each unique module's state in its own blob, in registration
// order. The restoring Mux must have been built by the same constructor, so
// the registration order matches. Savers gate on StateCodecOK, so a save
// that meets a module without a codec is a programming error and panics.
func (x *Mux) state(c *wire.Coder) {
	for _, mod := range x.mods {
		ms, ok := mod.(wire.StateCodec)
		if !ok {
			c.Fail("async: module %T does not implement wire.StateCodec", mod)
			return
		}
		if c.Nested(ms); c.Failed() {
			return
		}
	}
}

// Rebind implements Rebinder, forwarding to the modules that need it.
func (x *Mux) Rebind(n *Node) {
	for _, mod := range x.mods {
		if rb, ok := mod.(Rebinder); ok {
			rb.Rebind(n)
		}
	}
}

// CloneStateInto copies x's state into dst, a Mux built by the same
// constructor for the same node, through the codec copy ModeSpec's clones
// use (stateCopy). The engine does not call it.
func (x *Mux) CloneStateInto(dst Handler) {
	var c stateCopy
	c.copy(x, dst.(*Mux))
}
