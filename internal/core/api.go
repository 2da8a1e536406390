package core

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/slab"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// congestStamp enforces the CONGEST one-message-per-neighbor-per-pulse
// contract with a dense per-neighbor-index epoch array instead of a
// per-pulse map: begin() opens a new epoch (one pulse evaluation), mark()
// stamps a neighbor slot and panics on a repeat within the epoch. The
// array is sized to the node's degree once and reused for every pulse.
type congestStamp struct {
	stamp []int32
	epoch int32
}

// begin opens a new epoch for a node of the given degree and returns it.
func (c *congestStamp) begin(deg int) int32 {
	if c.stamp == nil {
		c.stamp = make([]int32, deg)
	}
	c.epoch++
	return c.epoch
}

// mark records a send to `to` in the given epoch. It resolves `to` via the
// graph's sorted adjacency (O(log degree), no hashing) and panics on a
// non-neighbor or a second send to the same neighbor in one epoch.
func (c *congestStamp) mark(n *async.Node, to graph.NodeID, epoch int32, who string) {
	idx := n.NeighborIndex(to)
	if idx < 0 {
		panic(fmt.Sprintf("core: %s node %d sending to non-neighbor %d", who, n.ID(), to))
	}
	if c.stamp[idx] == epoch {
		panic(fmt.Sprintf("core: %s node %d sent twice to %d in one pulse", who, n.ID(), to))
	}
	c.stamp[idx] = epoch
}

// captureAPI adapts the asynchronous node to the synchronous algorithm's
// API: the embedded node serves everything but Send, which it shadows.
// During Init it captures sends into the originator buffer; during Pulse
// it releases them as pulse-tagged algorithm messages.
type captureAPI struct {
	*async.Node
	core    *nodeCore
	vn      *vnode // nil while capturing Init
	capture bool
	epoch   int32
}

var _ syncrun.API = (*captureAPI)(nil)

// newAPI binds one pulse evaluation (or the Init capture) of the embedded
// algorithm to a fresh congest epoch. The core's one API value serves them
// all: Init and Pulse only queue sends, so no evaluation starts inside
// another.
func (c *nodeCore) newAPI(n *async.Node, vn *vnode, capture bool) *captureAPI {
	if c.cs.stamp == nil {
		c.cs.stamp = c.st.stamps.Carve(n.Degree())[:n.Degree()]
	}
	c.api = captureAPI{Node: n, core: c, vn: vn, capture: capture, epoch: c.cs.begin(n.Degree())}
	return &c.api
}

func (a *captureAPI) Send(to graph.NodeID, body wire.Body) {
	a.core.cs.mark(a.Node, to, a.epoch, "synchronizer")
	if a.capture {
		a.core.initSends = slab.Push(&a.core.st.sends, a.core.initSends, capturedSend{to: to, body: body})
		return
	}
	a.vn.sentAny = true
	a.core.sendAlgo(a.Node, a.vn, to, body)
}
