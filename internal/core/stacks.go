package core

import (
	"sync"

	"repro/internal/async"
	"repro/internal/cover"
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/reg"
	"repro/internal/slab"
	"repro/internal/syncrun"
)

// firstCoverLevel is the lowest cover level a pulse registers on: ℓ(p)+5.
const firstCoverLevel = 5

// stacks is one batch of synchronizer node stacks, built together so a run
// allocates them per run rather than per node: the batch's nodeCores and
// Muxes are two slices, and its registration and barrier modules one slice
// each, level-major (level k's module for slot i at k·n + i), every
// level's modules built in place by reg.NewLevel or gather.NewLevel so
// they share its slabs. Every Mux is a copy of one async.NewMux value, and
// the cores grow their run state from the batch's own slabs. Slot i hosts
// node base+i; a one-slot batch — NewNodeHandler's — hosts the node the
// engine binds it to. The batch is also every module's callbacks, routing
// each call to the core of the node it carries.
type stacks struct {
	sched   *Schedule
	layered *cover.Layered
	base    graph.NodeID

	cores []nodeCore
	muxes []async.Mux
	regs  []reg.Module // level-major, from firstCoverLevel
	bars  []gather.Module

	mux   *async.Mux
	extra func(id graph.NodeID, algo syncrun.Handler, mux *async.Mux) // nil: none

	vnodes slab.Slab[vnode]
	qs     slab.Slab[qstate]
	ready  slab.Slab[readyRef]
	recvd  slab.Slab[pendingMsg]
	batch  slab.Slab[syncrun.Incoming]
	sends  slab.Slab[capturedSend]
	stamps slab.Slab[int32]
}

var _ reg.Callbacks = (*stacks)(nil)
var _ gather.Callbacks = (*stacks)(nil)

func stagePulse(session int) int   { return session }
func stageBarrier(session int) int { return session / 2 }

// newStacks builds an empty batch of n slots, slot 0 hosting node base,
// whose Muxes copy mux.
func newStacks(sched *Schedule, layered *cover.Layered, n int, base graph.NodeID, mux *async.Mux) *stacks {
	levels := sched.MaxCoverLevel - firstCoverLevel + 1
	st := &stacks{
		sched:   sched,
		layered: layered,
		base:    base,
		cores:   make([]nodeCore, n),
		muxes:   make([]async.Mux, n),
		regs:    make([]reg.Module, levels*n),
		bars:    make([]gather.Module, levels*n),
		mux:     mux,
	}
	for k := range levels {
		lvl := firstCoverLevel + k
		cov := layered.Level(lvl)
		reg.NewLevel(st.regs[k*n:(k+1)*n], protoRegBase+async.Proto(lvl), cov, st, stagePulse)
		gather.NewLevel(st.bars[k*n:(k+1)*n], protoBarrierBase+async.Proto(lvl), cov, st, stageBarrier)
	}
	return st
}

// stack wires slot i's node stack around algo: the core engine plus one
// registration module and one barrier module per cover level in use.
func (st *stacks) stack(i int, algo syncrun.Handler) *async.Mux {
	c := &st.cores[i]
	*c = nodeCore{st: st, slot: int32(i), algo: algo}
	mux := &st.muxes[i]
	*mux = *st.mux
	mux.Register(protoAlgo, c)
	mux.Register(protoTree, c)
	for lvl := firstCoverLevel; lvl <= st.sched.MaxCoverLevel; lvl++ {
		mux.Register(protoRegBase+async.Proto(lvl), c.reg(lvl))
		mux.Register(protoBarrierBase+async.Proto(lvl), c.bar(lvl))
	}
	return mux
}

// core returns the core of the node n hosts in this batch.
func (st *stacks) core(n *async.Node) *nodeCore {
	if len(st.cores) == 1 {
		return &st.cores[0]
	}
	return &st.cores[n.ID()-st.base]
}

// Registered implements reg.Callbacks.
func (st *stacks) Registered(n *async.Node, c cover.ClusterID, session int) {
	st.core(n).Registered(n, c, session)
}

// GoAhead implements reg.Callbacks.
func (st *stacks) GoAhead(n *async.Node, c cover.ClusterID, session int) {
	st.core(n).GoAhead(n, c, session)
}

// NeighborhoodDone implements gather.Callbacks.
func (st *stacks) NeighborhoodDone(n *async.Node, session int) {
	st.core(n).NeighborhoodDone(n, session)
}

// Extra adds a caller's own modules to the node stacks of a synchronized
// run, batch by batch as the stacks themselves are built: the run calls it
// once per batch with the batch's node count, and the function it returns
// registers one node's modules on that node's Mux, beside the algorithm
// the stack embeds. Per-node modules can so come from per-batch slices and
// share per-batch slabs, as the stack's own do.
type Extra func(nodes int) func(id graph.NodeID, algo syncrun.Handler, mux *async.Mux)

// StackMaker returns the handler constructor of a synchronized run on g:
// each call wires node id's stack — the core engine plus one registration
// and one barrier module per cover level — around mk(id), taking it from
// the run's current batch, and registers extra's modules on it (extra may
// be nil). layered must reach sched's cover levels.
func StackMaker(g *graph.Graph, sched *Schedule, layered *cover.Layered,
	mk func(id graph.NodeID) syncrun.Handler, extra Extra) func(id graph.NodeID) async.Handler {
	b := &batcher{sched: sched, layered: layered, n: g.NLocal(), base: g.NodeBase(), extra: extra}
	return func(id graph.NodeID) async.Handler { return b.handler(id, mk(id)) }
}

// batcher hands each handler-constructor call of one synchronized run a
// stack from the run's current batch. A construction sweep — New's, or a
// Reset's — fills a batch slot by slot; a call for a node whose slot is
// taken (the next sweep, or a speculative clone target) starts a new batch.
// The engine may build clone targets concurrently, hence the lock.
type batcher struct {
	mu      sync.Mutex
	sched   *Schedule
	layered *cover.Layered
	n       int
	base    graph.NodeID
	extra   Extra
	cur     *stacks
}

func (b *batcher) handler(id graph.NodeID, algo syncrun.Handler) *async.Mux {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := int(id - b.base)
	if b.cur == nil || b.cur.cores[i].st != nil { // slot i is taken
		b.cur = newStacks(b.sched, b.layered, b.n, b.base, async.NewMux())
		if b.extra != nil {
			b.cur.extra = b.extra(b.n)
		}
	}
	mux := b.cur.stack(i, algo)
	if b.cur.extra != nil {
		b.cur.extra(id, algo, mux)
	}
	return mux
}
