package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// The traced phase sees the program from outside only: spans around calls
// into public functions, and call-count + nanosecond counters kept by
// decorators wrapped around the adversary and the handlers. The timed phase
// runs with a nil *tracer, which records nothing and wraps nothing.

// span is one call into a public function.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the root
	Op      int    `json:"op"`     // spans of one op share an id
}

type tracer struct {
	epoch time.Time
	spans []span
	open  []int // spans still open, innermost last
	op    int

	// serial is set while a forced-ModeSingle op runs. Only then are
	// decorated calls strictly nested on one goroutine, so only then do the
	// counters hold exclusive (self) time; otherwise they hold inclusive
	// time and only the call counts are reported. child accumulates the
	// time of the decorated calls nested in the innermost open one.
	serial bool
	child  int64

	adversary counter // async.Adversary.Delay
	algo      counter // the algorithm's own handler callbacks
	stack     counter // the synchronizer's per-node Mux callbacks

	metrics map[string]float64 // the current workload's per-layer numbers
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), metrics: map[string]float64{}} }

// set files a per-layer number; a nil tracer drops it.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.metrics[name] = v
	}
}

// span runs fn inside a span and returns how long fn took. A nil tracer
// only times fn, so set-up code reads the same in both phases.
func (t *tracer) span(name string, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	i, parent := len(t.spans), -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: start.Sub(t.epoch).Nanoseconds(), Parent: parent, Op: t.op})
	t.open = append(t.open, i)
	// Deferred so that an op that panics (counted as failed, not fatal)
	// leaves the span stack balanced.
	defer func() {
		t.open = t.open[:len(t.open)-1]
		t.spans[i].EndNs = time.Since(t.epoch).Nanoseconds()
	}()
	fn()
	return time.Since(start)
}

// beginOp starts a new op: a fresh span id and zeroed counters.
func (t *tracer) beginOp(serial bool) {
	t.op++
	t.serial, t.child = serial, 0
	t.adversary.reset()
	t.algo.reset()
	t.stack.reset()
}

func (t *tracer) enter() (start time.Time, outer int64) {
	if t.serial {
		outer, t.child = t.child, 0
	}
	return time.Now(), outer
}

func (t *tracer) exit(c *counter, id graph.NodeID, start time.Time, outer int64) {
	d := int64(time.Since(start))
	if t.serial {
		t.child, d = outer+d, d-t.child
	}
	c.add(id, d)
}

// counter is a call count and a nanosecond sum, striped by node id so the
// parallel executors' workers rarely share a cache line.
type counter struct {
	stripe [64]struct {
		calls, ns atomic.Int64
		_         [48]byte
	}
}

func (c *counter) add(id graph.NodeID, ns int64) {
	s := &c.stripe[uint32(id)%uint32(len(c.stripe))]
	s.calls.Add(1)
	s.ns.Add(ns)
}

func (c *counter) total() (calls int64, d time.Duration) {
	for i := range c.stripe {
		calls += c.stripe[i].calls.Load()
		d += time.Duration(c.stripe[i].ns.Load())
	}
	return calls, d
}

func (c *counter) reset() {
	for i := range c.stripe {
		c.stripe[i].calls.Store(0)
		c.stripe[i].ns.Store(0)
	}
}

// write stores the spans under the run's header. Spans stay in memory until
// the benchmark ends.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"header": header, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The decorators below return their argument unchanged under a nil tracer.

// tracedAdversary counts Delay calls. It hides an async.Faulty wrapper from
// the engine, so a fault workload must wrap inside async.WithFaults.
type tracedAdversary struct {
	async.Adversary
	t *tracer
}

func (t *tracer) wrapAdversary(adv async.Adversary) async.Adversary {
	if t == nil {
		return adv
	}
	return tracedAdversary{adv, t}
}

func (a tracedAdversary) Delay(from, to graph.NodeID, seq uint64, p async.Proto) float64 {
	start, outer := a.t.enter()
	d := a.Adversary.Delay(from, to, seq, p)
	a.t.exit(&a.t.adversary, from, start, outer)
	return d
}

// tracedAlgo counts a synchronous algorithm's callbacks. The algorithm must
// implement wire.StateCodec (every shipped one does): the synchronizer
// serializes it for snapshots and speculative clones.
type tracedAlgo struct {
	inner syncrun.Handler
	t     *tracer
}

func (t *tracer) wrapAlgo(mk func(graph.NodeID) syncrun.Handler) func(graph.NodeID) syncrun.Handler {
	if t == nil {
		return mk
	}
	return func(id graph.NodeID) syncrun.Handler { return &tracedAlgo{mk(id), t} }
}

func (h *tracedAlgo) Init(n syncrun.API) {
	start, outer := h.t.enter()
	h.inner.Init(n)
	h.t.exit(&h.t.algo, n.ID(), start, outer)
}

func (h *tracedAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	start, outer := h.t.enter()
	h.inner.Pulse(n, p, recvd)
	h.t.exit(&h.t.algo, n.ID(), start, outer)
}

func (h *tracedAlgo) SaveState(e *wire.Enc) { h.inner.(wire.StateCodec).SaveState(e) }
func (h *tracedAlgo) LoadState(d *wire.Dec) { h.inner.(wire.StateCodec).LoadState(d) }

// tracedHandler counts an asynchronous handler's callbacks into c. It
// forwards wire.StateCodec but deliberately not async.StateCloner: claiming
// cloneability for a handler that lacks it would change what
// execpolicy.AsyncAuto resolves to.
type tracedHandler struct {
	inner async.Handler
	t     *tracer
	c     *counter
}

func (t *tracer) wrapHandler(mk func(graph.NodeID) async.Handler) func(graph.NodeID) async.Handler {
	if t == nil {
		return mk
	}
	return func(id graph.NodeID) async.Handler { return &tracedHandler{mk(id), t, &t.algo} }
}

func (h *tracedHandler) Init(n *async.Node) {
	start, outer := h.t.enter()
	h.inner.Init(n)
	h.t.exit(h.c, n.ID(), start, outer)
}

func (h *tracedHandler) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	start, outer := h.t.enter()
	h.inner.Recv(n, from, m)
	h.t.exit(h.c, n.ID(), start, outer)
}

func (h *tracedHandler) Ack(n *async.Node, to graph.NodeID, m async.Msg) {
	start, outer := h.t.enter()
	h.inner.Ack(n, to, m)
	h.t.exit(h.c, n.ID(), start, outer)
}

func (h *tracedHandler) SaveState(e *wire.Enc) { h.inner.(wire.StateCodec).SaveState(e) }
func (h *tracedHandler) LoadState(d *wire.Dec) { h.inner.(wire.StateCodec).LoadState(d) }

// tracedMux is tracedHandler around the synchronizer's per-node Mux, plus
// everything else the engine asks a Mux for, so speculation and snapshots
// behave as they do untraced.
type tracedMux struct {
	tracedHandler
	mux *async.Mux
}

func (t *tracer) wrapMux(mk func(graph.NodeID) *async.Mux) func(graph.NodeID) async.Handler {
	if t == nil {
		return func(id graph.NodeID) async.Handler { return mk(id) }
	}
	return func(id graph.NodeID) async.Handler {
		mux := mk(id)
		return &tracedMux{tracedHandler{mux, t, &t.stack}, mux}
	}
}

func (m *tracedMux) StateCodecOK() bool   { return m.mux.StateCodecOK() }
func (m *tracedMux) Rebind(n *async.Node) { m.mux.Rebind(n) }
func (m *tracedMux) CloneStateInto(dst async.Handler) {
	m.mux.CloneStateInto(dst.(*tracedMux).mux)
}
