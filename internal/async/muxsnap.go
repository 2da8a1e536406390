package async

import (
	"fmt"

	"repro/internal/wire"
)

// StateCodecProbe is an optional refinement for composite handlers whose
// state-plane support depends on their runtime composition: a Mux is only
// as serializable and cloneable as the modules registered on it, which the
// type system cannot see. The engine consults the probe before trusting a
// handler's wire.StateCodec or StateCloner methods — a failing probe turns
// Snapshot into a clean error and ModeSpec into the conservative fallback
// instead of a panic inside SaveState or CloneStateInto.
type StateCodecProbe interface {
	// StateCodecOK reports whether the handler's complete state is
	// serializable (and, for a StateCloner, cloneable) right now.
	StateCodecOK() bool
}

// Rebinder is an optional handler/module interface for state restore:
// Sim.Restore calls Rebind on every node's handler immediately before that
// node's LoadState, whether or not the snapshotted run had started. A
// module that learns its node lazily (Start, its first callback) and lays
// its state out by that node's position in shared tables binds here, so
// LoadState on a freshly built engine can size and validate what it
// reads; a module that caches the *Node during Start re-captures it here,
// because Start does not run again on a resumed engine.
type Rebinder interface {
	Rebind(n *Node)
}

// ModuleState is the state-plane contract of a Mux module: the codec the
// snapshot plane reads and writes, plus a direct copy for ModeSpec's
// per-round clones. CloneModuleInto must leave dst — the same module of a
// Mux built by the same constructor for the same node — holding a copy of
// the receiver's complete mutable state that shares no mutable memory with
// it, reusing dst's capacity; it must be equivalent to LoadState(SaveState).
type ModuleState interface {
	wire.StateCodec
	CloneModuleInto(dst Module)
}

var (
	_ wire.StateCodec = (*Mux)(nil)
	_ StateCodecProbe = (*Mux)(nil)
	_ StateCloner     = (*Mux)(nil)
	_ Rebinder        = (*Mux)(nil)
)

// StateCodecOK implements StateCodecProbe: every registered module must
// implement ModuleState (and pass its own probe, if it has one).
func (x *Mux) StateCodecOK() bool {
	for i, mod := range x.uniq {
		if x.state[i] == nil {
			return false
		}
		if pr, ok := mod.(StateCodecProbe); ok && !pr.StateCodecOK() {
			return false
		}
	}
	return true
}

// noModuleState reports a walk over a module without ModuleState. Callers
// gate on StateCodecOK, so getting here is a programming error.
func (x *Mux) noModuleState(i int) {
	panic(fmt.Sprintf("async: module %T does not implement ModuleState", x.uniq[i]))
}

// SaveState implements wire.StateCodec: each unique module's state rides
// in its own blob, in registration order.
func (x *Mux) SaveState(e *wire.Enc) {
	for i, ms := range x.state {
		if ms == nil {
			x.noModuleState(i)
		}
		mark := e.BeginBlob()
		ms.SaveState(e)
		e.EndBlob(mark)
	}
}

// LoadState implements wire.StateCodec. The restoring Mux must have been
// built by the same constructor, so the registration order matches.
func (x *Mux) LoadState(d *wire.Dec) {
	for i, ms := range x.state {
		if ms == nil {
			d.Fail("async: module %T does not implement ModuleState", x.uniq[i])
			return
		}
		end := d.BeginBlob()
		if d.Failed() {
			return
		}
		ms.LoadState(d)
		d.EndBlob(end)
		if d.Failed() {
			return
		}
	}
}

// Rebind implements Rebinder, forwarding to the modules that need it.
func (x *Mux) Rebind(n *Node) {
	for _, mod := range x.uniq {
		if rb, ok := mod.(Rebinder); ok {
			rb.Rebind(n)
		}
	}
}

// CloneStateInto implements StateCloner: module by module, each copying
// its own state straight into its counterpart in dst. This runs once per
// touched node per speculative round, so it is the synchronizer stack's
// hot path under ModeSpec; the modules keep their state in flat slices
// precisely so that this is a handful of copies into dst's retained
// capacity.
func (x *Mux) CloneStateInto(dst Handler) {
	dx, ok := dst.(*Mux)
	if !ok || len(dx.uniq) != len(x.uniq) {
		panic(fmt.Sprintf("async: Mux clone target %T was not built by the same constructor", dst))
	}
	for i, ms := range x.state {
		if ms == nil {
			x.noModuleState(i)
		}
		ms.CloneModuleInto(dx.uniq[i])
	}
}
