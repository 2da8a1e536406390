package async

import (
	"fmt"

	"repro/internal/wire"
)

// StateCodecProbe is an optional refinement for composite handlers whose
// state-plane support depends on their runtime composition: a Mux is only
// as serializable and cloneable as the modules registered on it, which the
// type system cannot see. The engine consults the probe before trusting a
// handler's wire.StateCodec or stateCloner methods — a failing probe turns
// Snapshot into a clean error and ModeSpec into the conservative fallback
// instead of a panic inside SaveState or CloneStateInto.
type StateCodecProbe interface {
	// StateCodecOK reports whether the handler's complete state is
	// serializable (and, for a stateCloner, cloneable) right now.
	StateCodecOK() bool
}

// Rebinder is an optional handler/module interface for handlers that need
// their *Node before any callback: the engine calls Rebind exactly once on
// every handler it builds (New, Reset, and ModeSpec's clone targets),
// before Init and before any Restore loads state into it. A module that
// lays its state out by its node's position in shared tables binds here.
type Rebinder interface {
	Rebind(n *Node)
}

// ModuleState is the state-plane contract of a Mux module: the codec the
// snapshot plane reads and writes, plus a direct copy for ModeSpec's
// per-round clones. LoadState replaces the module's state rather than
// filling in a fresh module: Sim.Restore loads into the modules a run
// already has, mid-run or finished (see wire.StateCodec). CloneModuleInto
// must leave dst — the same module of a Mux built by the same constructor
// for the same node — holding a copy of the receiver's complete mutable
// state that shares no mutable memory with it, reusing dst's capacity; it
// must be equivalent to LoadState(SaveState).
type ModuleState interface {
	wire.StateCodec
	CloneModuleInto(dst Module)
}

var (
	_ wire.StateCodec = (*Mux)(nil)
	_ StateCodecProbe = (*Mux)(nil)
	_ stateCloner     = (*Mux)(nil)
	_ Rebinder        = (*Mux)(nil)
)

// StateCodecOK implements StateCodecProbe: every registered module must
// implement ModuleState (and pass its own probe, if it has one).
func (x *Mux) StateCodecOK() bool {
	for i := range x.routes {
		r := &x.routes[i]
		if !r.first {
			continue
		}
		if _, ok := r.mod.(ModuleState); !ok {
			return false
		}
		if pr, ok := r.mod.(StateCodecProbe); ok && !pr.StateCodecOK() {
			return false
		}
	}
	return true
}

// moduleState returns the unique module at route i's ModuleState. Callers
// gate on StateCodecOK, so a module without one is a programming error.
func (x *Mux) moduleState(i int) ModuleState {
	ms, ok := x.routes[i].mod.(ModuleState)
	if !ok {
		panic(fmt.Sprintf("async: module %T does not implement ModuleState", x.routes[i].mod))
	}
	return ms
}

// SaveState implements wire.StateCodec: each unique module's state rides
// in its own blob, in registration order.
func (x *Mux) SaveState(e *wire.Enc) {
	for i := range x.routes {
		if !x.routes[i].first {
			continue
		}
		mark := e.BeginBlob()
		x.moduleState(i).SaveState(e)
		e.EndBlob(mark)
	}
}

// LoadState implements wire.StateCodec. The restoring Mux must have been
// built by the same constructor, so the registration order matches.
func (x *Mux) LoadState(d *wire.Dec) {
	for i := range x.routes {
		r := &x.routes[i]
		if !r.first {
			continue
		}
		ms, ok := r.mod.(ModuleState)
		if !ok {
			d.Fail("async: module %T does not implement ModuleState", r.mod)
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
	for i := range x.routes {
		if rb, ok := x.routes[i].mod.(Rebinder); ok && x.routes[i].first {
			rb.Rebind(n)
		}
	}
}

// CloneStateInto implements stateCloner: module by module, each copying
// its own state straight into its counterpart in dst. This runs once per
// touched node per speculative round, so it is the synchronizer stack's
// hot path under ModeSpec; the modules keep their state in flat slices
// precisely so that this is a handful of copies into dst's retained
// capacity.
func (x *Mux) CloneStateInto(dst Handler) {
	dx, ok := dst.(*Mux)
	if !ok || len(dx.routes) != len(x.routes) {
		panic(fmt.Sprintf("async: Mux clone target %T was not built by the same constructor", dst))
	}
	for i := range x.routes {
		if x.routes[i].first {
			x.moduleState(i).CloneModuleInto(dx.routes[i].mod)
		}
	}
}
