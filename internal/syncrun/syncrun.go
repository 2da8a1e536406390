// Package syncrun executes event-driven synchronous algorithms (§5.1,
// Appendix B of the paper) in lockstep rounds and measures their time
// complexity T(A) (rounds until every node has output) and message
// complexity M(A) (total messages).
//
// The event-driven interpretation is enforced structurally: a node's
// handler runs in round p only when the node received a message that round
// or sent one in round p-1 — it cannot wake up because "r rounds passed".
// Handlers do receive the current pulse number p; this is exactly the
// information the synchronizer of §5 reconstructs (it proves
// pulse(v,p) = p), so providing it changes nothing about synchronizability
// while making algorithms like BFS natural to write.
//
// The engine is dense and allocation-free at steady state: message bodies
// are wire.Body values (no interface boxing), every Send appends a record
// to a send log, and at the pulse barrier the logs are counting-sorted by
// receiver into one flat inbox array — each receiver's batch is a
// contiguous range named by epoch-stamped lo/hi cursors (12 bytes of
// per-node state) and handed to the handler in place. The activation set
// is a bitmap iterated in node-index order, and the CONGEST
// one-message-per-link-per-pulse guard is a flat pulse-stamp array indexed
// by the graph's dense LinkID. Because the logs are read in serial send
// order (active nodes in ascending index order, each sending at most once
// per neighbor) and the scatter is stable, every batch is sorted by sender.
//
// Runner supports three execution modes. Single steps the activation set
// on one goroutine into one send log. Multi shards it across a worker
// pool, one log per worker, read in shard order, which reproduces Single's
// send order exactly. Multi also runs the barrier on the pool: the seal
// splits the receivers into word-aligned ranges, one per worker, each of
// which counts and scatters its own receivers' messages in that order, and
// the Result's output map decodes by slot range. Single is the one-range
// case of the same code, so Result (outputs, T, M, trace) is
// byte-identical across modes. Auto picks Multi for graphs large enough to
// amortize the pool, and runs it with the pool clamped to GOMAXPROCS.
package syncrun

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Incoming is one received message: the sender and the payload, both plain
// values — delivery never boxes. The recvd batch handed to Pulse aliases
// the engine's pulse buffer and is valid only during the call: the buffer
// is refilled at the next pulse barrier, and when Pulse returns the engine
// releases the segments of the entries recvd then holds. Copy entries out
// inside Pulse to retain them. recvd's capacity is clipped to its length,
// so appending to it copies, and overwriting its entries is seen by no
// other node and not by the trace.
type Incoming struct {
	From graph.NodeID
	Body wire.Body
}

// API is the surface an event-driven synchronous algorithm sees. The
// lockstep Runner in this package implements it with *node; the
// synchronizer of internal/core implements it again so the identical
// algorithm code runs asynchronously.
type API interface {
	// ID returns this node's identifier.
	ID() graph.NodeID
	// Neighbors returns adjacent nodes in ascending order.
	Neighbors() []graph.Neighbor
	// Degree returns the node degree.
	Degree() int
	// Send transmits body to a neighbor; it arrives next pulse. At most
	// one message per neighbor per pulse (CONGEST link capacity). Segment
	// ownership transfers to the engine at Send (see package wire).
	Send(to graph.NodeID, body wire.Body)
	// Arena returns the run's segment arena for variable-length payloads.
	Arena() *wire.Arena
	// Output records this node's final output: the convenience for int,
	// int64, bool and graph.NodeID values, stored as typed wire.Body
	// entries. Any other value panics; struct results go through
	// OutputBody.
	Output(v any)
	// OutputBody records this node's final output as a typed wire.Body
	// (non-zero Kind; outval decodes it at the Result boundary) — the
	// allocation-free path for struct results.
	OutputBody(b wire.Body)
	// HasOutput reports whether output was already produced.
	HasOutput() bool
}

// Handler is an event-driven synchronous node program. One Handler
// instance exists per node and owns that node's state. Handlers on
// different nodes must not share mutable state (shared read-only data is
// fine): under ModeMulti — which ModeAuto selects for large graphs —
// different nodes' Pulse calls run concurrently on a worker pool.
type Handler interface {
	// Init runs at pulse 0. Initiator nodes send their first messages here.
	Init(n API)
	// Pulse runs at pulse p > 0 if this node received messages sent at
	// pulse p-1 (recvd, sorted by sender) or itself sent at pulse p-1.
	// It may send messages (which then carry pulse p). recvd aliases the
	// engine's pulse buffer and is only valid during the call (see
	// Incoming).
	Pulse(n API, p int, recvd []Incoming)
}

// ExecutionMode selects how the Runner steps each pulse's activation set.
// Results are byte-identical across modes; the choice is purely about
// wall-clock performance.
type ExecutionMode int

const (
	// ModeAuto picks ModeMulti when the graph is large enough to amortize
	// the worker pool and more than one CPU is available, else ModeSingle.
	ModeAuto ExecutionMode = iota
	// ModeSingle steps active nodes sequentially on the calling goroutine.
	ModeSingle
	// ModeMulti shards the activation set across a worker pool with
	// per-worker send buffers merged deterministically.
	ModeMulti
)

func (m ExecutionMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSingle:
		return "single"
	case ModeMulti:
		return "multi"
	}
	return fmt.Sprintf("ExecutionMode(%d)", int(m))
}

// node is the Runner's API implementation. It is 16 bytes: effects route
// through a sink index — 0 for Init and serial pulses, k for worker k —
// resolved per call instead of held as a pointer.
type node struct {
	id      graph.NodeID
	sinkIdx int32 // set per step: the index into Runner.sinks
	run     *Runner
}

var _ API = (*node)(nil)

// ID returns the node id.
func (n *node) ID() graph.NodeID { return n.id }

// Neighbors returns adjacent nodes in ascending order.
func (n *node) Neighbors() []graph.Neighbor { return n.run.g.Neighbors(n.id) }

// Degree returns the node degree.
func (n *node) Degree() int { return n.run.g.Degree(n.id) }

// Send transmits body to neighbor `to`; it arrives next pulse. At most one
// message per neighbor per pulse (CONGEST-style link capacity; the async
// ack discipline enforces the same limit, so algorithms written against
// this runner synchronize without surprises).
func (n *node) Send(to graph.NodeID, body wire.Body) {
	r := n.run
	l := r.g.LinkBetween(n.id, to)
	if l < 0 {
		panic(fmt.Sprintf("syncrun: node %d sending to non-neighbor %d", n.id, to))
	}
	stamp := int32(r.pulse) + 1
	if r.sentAt[l] == stamp {
		panic(fmt.Sprintf("syncrun: node %d sent twice to %d in one pulse", n.id, to))
	}
	r.sentAt[l] = stamp
	r.sinks[n.sinkIdx].push(sendRec{from: n.id, to: to, body: body})
}

// Output records this node's final output.
func (n *node) Output(v any) { n.OutputBody(outval.Encode(n.id, v)) }

// OutputBody records this node's final output as a typed wire.Body. A
// first output flags the node's sink; the seal advances the T clock from
// the flag.
func (n *node) OutputBody(b wire.Body) {
	if n.run.out.SetBody(int(n.id), b) {
		n.run.sinks[n.sinkIdx].newOut = true
	}
}

// HasOutput reports whether this node already produced output.
func (n *node) HasOutput() bool { return n.run.out.Has(int(n.id)) }

// Arena returns the run's segment arena. Sent segments are recycled after
// the receiving pulse's batch is delivered; the arena is safe for the
// Multi-mode worker pool.
func (n *node) Arena() *wire.Arena { return &n.run.arena }

// TraceEntry records one message for trace-equivalence checking against the
// synchronized asynchronous execution (Theorem 5.2).
type TraceEntry struct {
	Pulse    int
	From, To graph.NodeID
	Body     wire.Body
}

// Result summarizes a synchronous run.
type Result struct {
	// T is the paper's T(A): rounds until the last node outputs.
	T int
	// Rounds is the round at which the network went quiet.
	Rounds int
	// M is the paper's M(A): total messages sent.
	M uint64
	// Outputs maps node -> decoded output (nil with WithDenseOutputs).
	Outputs map[graph.NodeID]any
	// OutBodies/OutSet are the dense typed outputs, populated only with
	// WithDenseOutputs: OutSet[v] reports whether node v output,
	// OutBodies[v] is its outval-encoded value.
	OutBodies []wire.Body
	OutSet    []bool
	// Trace lists every message with its pulse (in deterministic order).
	Trace []TraceEntry
}

// sendRec is one staged send, held in a sink's log until the seal.
type sendRec struct {
	from, to graph.NodeID
	body     wire.Body
}

// Send-log chunk capacities in records: the first chunk is small so small
// runs stay small, each further one doubles up to the cap.
const minLogChunk, maxLogChunk = 64, 1 << 16

// sendSink is one effect buffer — sink 0 serves Init and serial pulses,
// sink k worker k. Sends accumulate in call order in log[:used], a list of
// chunks kept across pulses, so the log grows to the peak pulse without
// ever copying; newOut records whether any node produced its first output.
// Both drain at the seal.
type sendSink struct {
	log    [][]sendRec
	used   int
	newOut bool
}

func (s *sendSink) push(rec sendRec) {
	if s.used == 0 || len(s.log[s.used-1]) == cap(s.log[s.used-1]) {
		s.grow()
	}
	s.log[s.used-1] = append(s.log[s.used-1], rec)
}

// grow opens the next chunk, allocating it the first time the log reaches
// it.
func (s *sendSink) grow() {
	if s.used == len(s.log) {
		size := minLogChunk
		if s.used > 0 {
			size = min(2*cap(s.log[s.used-1]), maxLogChunk)
		}
		s.log = append(s.log, make([]sendRec, 0, size))
	}
	s.used++
}

// pulseBuf holds one pulse's deliveries grouped by receiver: receiver v's
// batch is in[lo[v]:hi[v]] when ep[v] equals the fill epoch, so rearming
// the buffer is a counter bump instead of clearing n per-node ranges. bits
// is the activation set (receivers and last pulse's senders). One buffer
// suffices: handlers read it during the pulse, and the seal refills it
// only after the pulse's last handler returned.
type pulseBuf struct {
	in     []Incoming
	lo, hi []int32
	ep     []uint32
	epoch  uint32
	bits   []uint64
	active int // number of set bits
}

func (b *pulseBuf) activate(v graph.NodeID) { b.active += b.mark(v) }

// mark sets v's activation bit and returns 1 if it was clear. The seal's
// range workers sum these privately instead of sharing the active count.
func (b *pulseBuf) mark(v graph.NodeID) int {
	w, m := uint(v)>>6, uint64(1)<<(uint(v)&63)
	if b.bits[w]&m != 0 {
		return 0
	}
	b.bits[w] |= m
	return 1
}

// next returns the first active node after v; one must exist.
func (b *pulseBuf) next(v graph.NodeID) graph.NodeID {
	i := int(v) + 1
	w := i >> 6
	for word := b.bits[w] >> (i & 63) << (i & 63); ; word = b.bits[w] {
		if word != 0 {
			return graph.NodeID(w<<6 + bits.TrailingZeros64(word))
		}
		w++
	}
}

// batch returns node v's deliveries in place, its capacity clipped so a
// handler's append cannot reach the next receiver's range. Nodes active
// only because they sent get none: their epoch never reached this fill.
func (b *pulseBuf) batch(v graph.NodeID) []Incoming {
	if b.ep[v] != b.epoch {
		return nil
	}
	return b.in[b.lo[v]:b.hi[v]:b.hi[v]]
}

// refill rearms the buffer: the inbox empties (capacity kept) and the
// epoch bump invalidates every node's range at once. Incoming holds no
// pointers, so the retained capacity pins nothing for the GC.
func (b *pulseBuf) refill() {
	b.in = b.in[:0]
	if b.epoch == math.MaxUint32 {
		panic("syncrun: pulse epoch counter overflow")
	}
	b.epoch++
}

// Runner executes one synchronous algorithm on one graph.
type Runner struct {
	g        *graph.Graph
	handlers []Handler
	nodes    []node

	mode        ExecutionMode
	workers     int
	minParallel int
	pool        int // the pool start resolved: 1 unless the mode is Multi

	pulse  int
	buf    pulseBuf    // this pulse's deliveries; between pulses, the next's
	sinks  []sendSink  // send logs: one, or one per worker once Multi fans out
	ranges []sealRange // the seal's receiver ranges: one, or one per worker

	// started marks that Init ran (or was skipped on a resumed run); done
	// marks quiescence; resumed marks state loaded from a snapshot, whose
	// continuation skips Init (see snap.go).
	started bool
	done    bool
	resumed bool

	// sentAt is the CONGEST guard: per directed link, the stamp
	// (pulse+1) of the last pulse a message was sent on it.
	sentAt []int32

	// out holds the node outputs; concurrent worker Pulses write only
	// their own nodes' (disjoint) slots.
	out       outval.Table
	denseOut  bool
	lastOut   int
	msgs      uint64
	trace     []TraceEntry
	keepTrace bool

	// Multi-mode state, allocated on first parallel pulse. part is runPart,
	// bound once; ph and parts are the fan-out it runs.
	activeIDs    []graph.NodeID
	workerPanics []any
	part         func(k int)
	ph           phase
	parts        int

	// arena backs Body.Seg segments; delivered segments return to it after
	// the receiving pulse's batch is processed.
	arena wire.Arena
}

// maxRounds caps a run's pulses; a run past it is a handler that never
// quiesces, and the runner panics instead of spinning.
const maxRounds = 1 << 22

// New builds a Runner; mk creates each node's handler.
func New(g *graph.Graph, mk func(id graph.NodeID) Handler) *Runner {
	r := &Runner{
		g:        g,
		handlers: make([]Handler, g.N()),
		nodes:    make([]node, g.N()),
		// Epoch 1 is past the zeroed stamps; each refill bumps past every
		// stamp the buffer has ever written, so stale ranges never match.
		buf: pulseBuf{
			lo: make([]int32, g.N()), hi: make([]int32, g.N()), ep: make([]uint32, g.N()),
			epoch: 1, bits: make([]uint64, (g.N()+63)/64),
		},
		sinks:       make([]sendSink, 1),
		sentAt:      make([]int32, g.Links()),
		workers:     execpolicy.DefaultWorkers(),
		minParallel: defaultMinParallel,
	}
	r.part = r.runPart
	r.out.Init(g.N())
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		r.nodes[i] = node{id: id, run: r}
		r.handlers[i] = mk(id)
	}
	return r
}

// defaultMinParallel is the smallest activation set Multi mode fans out;
// smaller sets step inline (results are identical either way).
const defaultMinParallel = 128

// KeepTrace enables message-trace recording (used by equivalence tests).
func (r *Runner) KeepTrace() *Runner { r.keepTrace = true; return r }

// WithDenseOutputs makes Run return outputs as the dense OutBodies/OutSet
// pair instead of materializing the Outputs map; Outputs stays nil.
// Neither form allocates per node at the finish line: the map's values are
// boxed in place in a few chunks per kind. The dense one still saves
// building the map and its chunks. Callers decode with outval.DecodeDense.
func (r *Runner) WithDenseOutputs() *Runner { r.denseOut = true; return r }

// WithMode selects the execution mode (default ModeAuto).
func (r *Runner) WithMode(m ExecutionMode) *Runner { r.mode = m; return r }

// WithWorkers caps the Multi-mode worker pool (default GOMAXPROCS, capped
// by execpolicy.MaxWorkers). ModeAuto additionally clamps the pool it runs
// with to GOMAXPROCS; a forced ModeMulti keeps an oversubscribed count
// (tests force several workers on 1 CPU to exercise the concurrent path).
func (r *Runner) WithWorkers(k int) *Runner {
	execpolicy.ValidateWorkers("syncrun", k)
	r.workers = k
	return r
}

// WithMinParallel sets the smallest activation set Multi mode fans out to
// the pool (default 128); smaller sets step inline. Tests and benchmarks
// lower it to force the parallel path on small graphs — results are
// byte-identical regardless.
func (r *Runner) WithMinParallel(k int) *Runner {
	if k < 1 {
		panic(fmt.Sprintf("syncrun: parallel threshold %d < 1", k))
	}
	r.minParallel = k
	return r
}

// Handler returns node v's handler for post-run inspection.
func (r *Runner) Handler(v graph.NodeID) Handler { return r.handlers[v] }

// Run executes to quiescence and returns measurements.
func (r *Runner) Run() Result {
	r.start()
	for r.stepPulse() {
	}
	return r.finish()
}

// start resolves the execution mode into the pool the run steps, seals and
// decodes with, then runs pulse 0 (Init) on the first call — unless the
// runner resumed from a snapshot, whose pulse 0 already happened in the
// interrupted run.
func (r *Runner) start() {
	switch {
	case r.mode == ModeMulti:
		r.pool = r.workers
	case r.mode == ModeAuto && execpolicy.LockstepMulti(r.workers, r.g.N()):
		r.pool = execpolicy.AutoWorkers(r.workers)
	default:
		r.pool = 1
	}
	if !r.started {
		r.started = true
		if !r.resumed {
			// Pulse 0: initiators act; their sends seal into the buffer.
			for i := range r.handlers {
				r.handlers[i].Init(&r.nodes[i])
			}
			r.seal()
		}
	}
}

// fanWidth is how many workers a barrier phase over `size` items uses: the
// whole pool once size reaches the parallel threshold, else one (inline).
func (r *Runner) fanWidth(size int) int {
	if size >= r.minParallel {
		return r.pool
	}
	return 1
}

// stepPulse advances the clock and executes one pulse, reporting false
// once the network is quiet (the clock still advances past the final
// pulse, preserving Rounds = pulse-1).
func (r *Runner) stepPulse() bool {
	if r.done {
		return false
	}
	r.pulse++
	if r.pulse > maxRounds {
		panic(fmt.Sprintf("syncrun: exceeded %d rounds", maxRounds))
	}
	if r.buf.active == 0 {
		r.done = true
		return false
	}
	if w := r.fanWidth(r.buf.active); w > 1 {
		r.stepParallel(w)
	} else {
		r.stepSerial()
	}
	r.seal()
	return true
}

// finish materializes the run's Result.
func (r *Runner) finish() Result {
	res := Result{
		T:      r.lastOut,
		Rounds: r.pulse - 1,
		M:      r.msgs,
		Trace:  r.trace,
	}
	if r.denseOut {
		res.OutBodies, res.OutSet = r.out.Dense(false)
	} else {
		res.Outputs = r.out.Map(0, r.fanWidth(r.g.N()))
	}
	return res
}

// stepSerial runs one pulse on the calling goroutine, iterating active
// nodes in index order straight off the bitmap.
func (r *Runner) stepSerial() {
	for w, word := range r.buf.bits {
		if word == 0 {
			continue
		}
		r.buf.bits[w] = 0
		base := w << 6
		for word != 0 {
			v := graph.NodeID(base + bits.TrailingZeros64(word))
			word &= word - 1
			r.stepNode(v, 0)
		}
	}
	r.buf.active = 0
}

// stepNode hands node v its batch in place and recycles the batch's
// segments once the handler returns.
func (r *Runner) stepNode(v graph.NodeID, sinkIdx int32) {
	batch := r.buf.batch(v)
	n := &r.nodes[v]
	n.sinkIdx = sinkIdx
	r.handlers[v].Pulse(n, r.pulse, batch)
	for i := range batch {
		r.arena.Release(batch[i].Body.Seg) // the batch was the segment's last use
	}
}

// stepParallel runs one pulse on w workers: contiguous shards of the
// (index-ordered) activation set step concurrently, worker k staging its
// sends in sink k; the seal reads the sinks in shard order, reproducing
// serial order.
func (r *Runner) stepParallel(w int) {
	ids := r.activeIDs[:0]
	for i, word := range r.buf.bits {
		if word == 0 {
			continue
		}
		r.buf.bits[i] = 0
		base := i << 6
		for word != 0 {
			ids = append(ids, graph.NodeID(base+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	r.activeIDs = ids
	r.buf.active = 0
	w = min(w, len(ids))
	if len(r.sinks) < w {
		r.sinks = append(r.sinks, make([]sendSink, w-len(r.sinks))...)
	}
	r.fanOut(stepPhase, w)
}

// A phase names the work fanOut splits across the pool.
type phase uint8

const (
	stepPhase    phase = iota // step shard k of the activation set
	countPhase                // count and activate seal range k
	scatterPhase              // place seal range k's batches
)

// fanOut runs phase ph's parts 0..w-1 through execpolicy.FanOut.
func (r *Runner) fanOut(ph phase, w int) {
	if len(r.workerPanics) < w {
		r.workerPanics = make([]any, w)
	}
	r.ph, r.parts = ph, w
	execpolicy.FanOut(w, r.workerPanics, r.part)
}

// runPart runs part k of the current fan-out.
func (r *Runner) runPart(k int) {
	w := r.parts
	switch r.ph {
	case stepPhase:
		ids := r.activeIDs
		for _, v := range ids[k*len(ids)/w : (k+1)*len(ids)/w] {
			r.stepNode(v, int32(k))
		}
	case countPhase:
		r.ranges[k].count(r)
	case scatterPhase:
		r.ranges[k].scatter(r)
	}
}

// seal closes a pulse (or Init) at the barrier: it counting-sorts the
// staged sends by receiver into the buffer as the next pulse's batches.
// The sinks are read in order, which is the serial application order. A
// serial pre-pass books M, T and the trace. The receivers then split into
// contiguous ranges of whole bitmap words, one per worker (a single range
// unless the pulse is past the parallel threshold of a Multi run), so no
// two workers write the same bits word or lo/hi/ep entry. Each range's
// worker walks every send in order twice: first counting its receivers'
// messages and activating its senders and receivers, then — once a prefix
// sum over the range totals has given each range its base in the inbox —
// assigning its receivers contiguous ranges in ascending node order and
// scattering its messages stably, so every batch stays sorted by sender
// and the buffer is the same for any number of ranges.
func (r *Runner) seal() {
	b := &r.buf
	b.refill()
	msgs := 0
	for k := range r.sinks {
		s := &r.sinks[k]
		for _, c := range s.log[:s.used] {
			msgs += len(c)
			if !r.keepTrace {
				continue
			}
			for i := range c {
				// A seg-carrying trace Body keeps only the handle; its
				// storage is recycled after delivery, so traces of seg
				// traffic are compared by handle, not resolved afterwards.
				r.trace = append(r.trace, TraceEntry{Pulse: r.pulse, From: c[i].from, To: c[i].to, Body: c[i].body})
			}
		}
		if s.newOut && r.pulse > r.lastOut {
			r.lastOut = r.pulse
		}
	}
	r.msgs += uint64(msgs)

	w := r.fanWidth(msgs)
	if len(r.ranges) < w {
		r.ranges = make([]sealRange, w)
	}
	words := len(b.bits)
	for k := range w {
		r.ranges[k] = sealRange{w0: k * words / w, w1: (k + 1) * words / w}
	}
	r.fanOut(countPhase, w)
	var off int32
	for k := range w {
		rg := &r.ranges[k]
		rg.base, off = off, off+rg.msgs
		b.active += rg.active
	}
	if int(off) > cap(b.in) {
		b.in = make([]Incoming, 0, max(int(off), 2*cap(b.in)))
	}
	b.in = b.in[:off]
	r.fanOut(scatterPhase, w)

	for k := range r.sinks {
		s := &r.sinks[k]
		for j, c := range s.log[:s.used] {
			s.log[j] = c[:0]
		}
		s.used, s.newOut = 0, false
	}
}

// sealRange is one seal worker's share of the receivers: the nodes of
// bitmap words [w0, w1), the messages they receive, the nodes it
// activated, and its base offset in the inbox.
type sealRange struct {
	w0, w1     int
	msgs, base int32
	active     int
}

// nodes returns the range's first node and its node count.
func (rg *sealRange) nodes(n int) (graph.NodeID, uint32) {
	lo := rg.w0 << 6
	return graph.NodeID(lo), uint32(max(min(rg.w1<<6, n)-lo, 0))
}

// count walks every send in serial order, counting the messages to the
// range's receivers in their lo cursors and activating the range's
// receivers and senders.
func (rg *sealRange) count(r *Runner) {
	b := &r.buf
	lo, n := rg.nodes(len(b.lo))
	var msgs int32
	active := 0
	for k := range r.sinks {
		s := &r.sinks[k]
		for _, c := range s.log[:s.used] {
			for i := range c {
				rec := &c[i]
				if uint32(rec.to-lo) < n {
					if b.ep[rec.to] != b.epoch {
						b.ep[rec.to], b.lo[rec.to] = b.epoch, 0
						active += b.mark(rec.to)
					}
					b.lo[rec.to]++
					msgs++
				}
				if uint32(rec.from-lo) < n {
					active += b.mark(rec.from)
				}
			}
		}
	}
	rg.msgs, rg.active = msgs, active
}

// scatter gives each of the range's receivers its contiguous inbox range,
// in ascending node order from the range's base, then places the range's
// messages in serial send order.
func (rg *sealRange) scatter(r *Runner) {
	b := &r.buf
	off := rg.base
	for w := rg.w0; w < rg.w1; w++ {
		for word, base := b.bits[w], w<<6; word != 0; word &= word - 1 {
			if v := base + bits.TrailingZeros64(word); b.ep[v] == b.epoch {
				cnt := b.lo[v]
				b.lo[v], b.hi[v] = off, off
				off += cnt
			}
		}
	}
	lo, n := rg.nodes(len(b.lo))
	for k := range r.sinks {
		s := &r.sinks[k]
		for _, c := range s.log[:s.used] {
			for i := range c {
				rec := &c[i]
				if uint32(rec.to-lo) < n {
					b.in[b.hi[rec.to]] = Incoming{From: rec.from, Body: rec.body}
					b.hi[rec.to]++
				}
			}
		}
	}
}
