package async

import (
	"fmt"

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
// A run that hosts one Mux per node builds them as copies of one NewMux
// value, taken before the first Register: the copies share its route
// table slab, so the run allocates route tables per run, not per node.
type Mux struct {
	// routes pairs each registered proto with its module, in registration
	// order; dispatch scans it, since a stack registers a handful of protos.
	// A module registered under several protos (the synchronizer core owns
	// ProtoAlgo and ProtoTree) is marked first on its earliest route only:
	// the first routes, in order, are the unique modules — the order they
	// start in and the state plane (muxsnap.go) walks.
	routes []route
	tables *slab.Slab[route]
}

type route struct {
	proto Proto
	first bool
	mod   Module
}

var _ Handler = (*Mux)(nil)

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{tables: &slab.Slab[route]{}} }

// Register attaches mod to proto p. Registering the same proto twice panics.
func (x *Mux) Register(p Proto, mod Module) {
	first := true
	for i := range x.routes {
		if x.routes[i].proto == p {
			panic(fmt.Sprintf("async: proto %d registered twice", p))
		}
		if x.routes[i].mod == mod {
			first = false
		}
	}
	if len(x.routes) == cap(x.routes) && x.tables != nil {
		x.routes = append(x.tables.Carve(max(2*len(x.routes), 8)), x.routes...)
	}
	x.routes = append(x.routes, route{proto: p, first: first, mod: mod})
}

// Module returns the module registered for p, or nil.
func (x *Mux) Module(p Proto) Module {
	for i := range x.routes {
		if x.routes[i].proto == p {
			return x.routes[i].mod
		}
	}
	return nil
}

// Init implements Handler: starts each module once, in registration order.
func (x *Mux) Init(n *Node) {
	for i := range x.routes {
		if x.routes[i].first {
			x.routes[i].mod.Start(n)
		}
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
