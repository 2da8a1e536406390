package async

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/slab"
)

// Module is a sub-protocol that can be composed with others on one node.
// It is the same shape as Handler, except Start replaces Init to avoid
// confusion about who owns simulator initialization.
type Module interface {
	Start(n *Node)
	Recv(n *Node, from graph.NodeID, m Msg)
	Ack(n *Node, to graph.NodeID, m Msg)
}

// Mux composes several Modules into one Handler, routing each message to
// the module registered for its Proto tag. The paper's algorithms are
// stacks of subroutines (covers, registration, gather, BFS, synchronizer
// core) sharing the same physical links; Mux is how one node hosts them.
//
// A Mux is NewMux's value or a copy of it taken before the first Register.
// A run that hosts one Mux per node builds them as such copies, and every
// copy makes the same Register calls: the copies share one dispatch table,
// which the first copy's calls write and the others only read, and carve
// their module lists from its slab, so the run allocates routing per run,
// not per node. A copy whose k-th call names another proto than the first
// copy's, or another module where the first copy named one again, panics.
type Mux struct {
	mods []Module // the distinct modules, in registration order
	n    int      // Register calls made: a prefix of tab's sequence
	tab  *muxTable
}

// muxTable is the registration sequence of copies of one NewMux value, by
// proto: the proto's position in it and the index of its module in each
// copy's mods. The module order is the order modules start in and the
// state plane (muxsnap.go) walks.
type muxTable struct {
	at           []muxSlot // by proto
	calls, nmods int
	mods         slab.Slab[Module]
}

// muxSlot is a proto's entry: pos is 1 + its position (0: never
// registered), mod its module's index.
type muxSlot struct{ pos, mod int32 }

var _ Handler = (*Mux)(nil)

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{tab: &muxTable{}} }

// Register attaches mod to proto p, which must lie in [0, maxProto].
// Registering the same proto twice panics.
func (x *Mux) Register(p Proto, mod Module) {
	if p < 0 || p > maxProto {
		panic(fmt.Sprintf("async: proto %d registered, outside the [0, %d] an event holds", p, maxProto))
	}
	if x.Module(p) != nil {
		panic(fmt.Sprintf("async: proto %d registered twice", p))
	}
	t, k := x.tab, x.n
	if k == t.calls { // the first copy to make call k extends the sequence
		t.at = append(t.at, make([]muxSlot, max(0, int(p)+1-len(t.at)))...)
		j := slices.Index(x.mods, mod)
		if j < 0 { // a new module: this copy holds all t.nmods before it
			j, t.nmods = t.nmods, t.nmods+1
		}
		t.at[p], t.calls = muxSlot{int32(k + 1), int32(j)}, k+1
	}
	if int(p) >= len(t.at) || int(t.at[p].pos) != k+1 ||
		int(t.at[p].mod) < len(x.mods) && x.mods[t.at[p].mod] != mod {
		panic(fmt.Sprintf("async: Register call %d (proto %d, module %T) differs from the first copy of this Mux", k, p, mod))
	}
	if int(t.at[p].mod) == len(x.mods) {
		if x.mods == nil {
			x.mods = t.mods.Carve(t.nmods)
		}
		x.mods = slab.Push(&t.mods, x.mods, mod)
	}
	x.n++
}

// Module returns the module registered for p, or nil.
func (x *Mux) Module(p Proto) Module {
	if p >= 0 && int(p) < len(x.tab.at) {
		if s := x.tab.at[p]; s.pos > 0 && int(s.pos) <= x.n {
			return x.mods[s.mod]
		}
	}
	return nil
}

// Init implements Handler: starts each module once, in registration order.
func (x *Mux) Init(n *Node) {
	for _, mod := range x.mods {
		mod.Start(n)
	}
}

// Recv implements Handler.
func (x *Mux) Recv(n *Node, from graph.NodeID, m Msg) {
	mod := x.Module(m.Proto)
	if mod == nil {
		panic(fmt.Sprintf("async: node %d got message for unregistered proto %d", n.ID(), m.Proto))
	}
	mod.Recv(n, from, m)
}

// Ack implements Handler.
func (x *Mux) Ack(n *Node, to graph.NodeID, m Msg) {
	mod := x.Module(m.Proto)
	if mod == nil {
		panic(fmt.Sprintf("async: node %d got ack for unregistered proto %d", n.ID(), m.Proto))
	}
	mod.Ack(n, to, m)
}
