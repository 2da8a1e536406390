package syncrun

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Lockstep state plane: snapshot / restore of a Runner at pulse
// boundaries. The frame carries the complete mutable run state — pulse
// clock, message and output accounting, every handler's protocol state via
// its wire.StateCodec, the next pulse's pending deliveries and activation
// set, and the trace — so restoring it into a Runner built over the same
// graph and handler constructor continues the run with byte-identical
// Results in every execution mode.
//
// The CONGEST guard (sentAt) deliberately stays out of the frame: its
// stamps are pulse+1 values compared for equality only, and the pulse
// clock is strictly increasing, so a restored run's fresh zero stamps can
// never falsely match a future pulse — the guard re-arms itself.

// Snapshot serializes the runner's state into a sealed frame. Legal
// before Run, between RunPulses calls, or after quiescence — pulse
// boundaries, where the send logs are sealed and all pending work sits in
// the pulse buffer as the next pulse's batches.
func (r *Runner) Snapshot() ([]byte, error) {
	se := wire.NewSnapshotEnc(&r.arena, 0)
	if err := r.frame(se.Coder()); err != nil {
		return nil, err
	}
	return se.Seal(), nil
}

// Restore loads a Snapshot frame into this runner, which must be freshly
// built (never stepped) over the same graph and handler constructor as the
// snapshotted one. The next Run or RunPulses continues the interrupted
// run.
func (r *Runner) Restore(data []byte) error {
	if r.started || r.resumed || r.pulse != 0 {
		return fmt.Errorf("syncrun: Restore into a runner that already ran (build a fresh one)")
	}
	payload, err := wire.OpenSnapshot(data)
	if err != nil {
		return err
	}
	d := wire.NewDec(payload, &r.arena)
	if err = r.frame(d.Coder()); err == nil {
		err = d.Err()
	}
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("syncrun: snapshot frame has %d trailing bytes", d.Remaining())
	}
	if err != nil {
		r.restoreFailed()
	}
	return err
}

// frame codes the runner's frame: header, counters, every node's output
// record and handler state in index order, the next pulse's pending
// deliveries as per-receiver chains in receiver order (batch order is the
// serial application order), the activation set in index order, and the
// trace. Loading, it refuses what the runner could not have written: a
// pulse outside [0, maxRounds] or an output after it, a delivery from a
// node that is not the receiver's neighbor, chains or active ids that do
// not strictly ascend, a chain whose receiver is not active, and pending
// work in a frame taken before Init or after quiescence.
func (r *Runner) frame(c *wire.Coder) error {
	n, traced, inited := uint32(r.g.N()), r.keepTrace, r.started || r.resumed
	c.U32(&n)
	c.Bool(&traced)
	c.Bool(&inited)
	if c.Loading() && !c.Failed() {
		if int(n) != r.g.N() {
			return fmt.Errorf("syncrun: snapshot of a %d-node graph restored into %d nodes", n, r.g.N())
		}
		if traced != r.keepTrace {
			return fmt.Errorf("syncrun: snapshot traced=%v, runner traced=%v", traced, r.keepTrace)
		}
	}

	c.Int(&r.pulse)
	c.Int(&r.lastOut)
	c.U64(&r.msgs)
	c.Bool(&r.done)
	if c.Loading() && !c.Failed() && (r.pulse < 0 || r.pulse > maxRounds || r.lastOut < 0 || r.lastOut > r.pulse) {
		c.Fail("pulse %d with the last output at pulse %d", r.pulse, r.lastOut)
	}

	for i := 0; i < r.g.N() && !c.Failed(); i++ {
		r.out.Record(c, i)
		sc, ok := r.handlers[i].(wire.StateCodec)
		if !ok {
			return fmt.Errorf("syncrun: handler %T of node %d does not implement wire.StateCodec; runner state cannot be snapshotted or restored", r.handlers[i], i)
		}
		c.Nested(sc)
	}

	b := &r.buf
	chains := 0
	for to := range r.g.N() {
		if b.ep[to] == b.epoch {
			chains++
		}
	}
	to := graph.NodeID(-1)
	for i, n := 0, c.Count(chains); i < n && !c.Failed(); i++ {
		prev := to
		for to++; !c.Loading() && b.ep[to] != b.epoch; to++ {
		}
		if wire.ID(c, &to); c.Loading() && !c.Failed() {
			if to <= prev || int(to) >= r.g.N() {
				c.Fail("delivery chain for node %d outside the graph or not above %d", to, prev)
				break
			}
			lo := int32(len(b.in))
			b.ep[to], b.lo[to], b.hi[to] = b.epoch, lo, lo
		}
		batch := b.batch(to)
		for j, n := 0, c.Count(len(batch)); j < n && !c.Failed(); j++ {
			var in Incoming
			if !c.Loading() {
				in = batch[j]
			}
			wire.ID(c, &in.From)
			if c.Loading() && !c.Failed() && (in.From < 0 || int(in.From) >= r.g.N() || r.g.LinkBetween(to, in.From) < 0) {
				c.Fail("delivery from %d to %d along a non-edge", in.From, to)
			}
			if c.Body(&in.Body); c.Loading() && !c.Failed() {
				b.in = append(b.in, in)
				b.hi[to]++
			}
		}
	}

	v := graph.NodeID(-1)
	for i, n := 0, c.Count(b.active); i < n && !c.Failed(); i++ {
		prev := v
		if !c.Loading() {
			v = b.next(v)
		}
		if wire.ID(c, &v); c.Loading() && !c.Failed() {
			if v <= prev || int(v) >= r.g.N() {
				c.Fail("active node %d outside the graph or not above %d", v, prev)
				break
			}
			b.activate(v)
		}
	}
	if c.Loading() && !c.Failed() {
		for to := range r.g.N() {
			if b.ep[to] == b.epoch && b.bits[to>>6]&(1<<(to&63)) == 0 {
				c.Fail("delivery chain for node %d, which is not active", to)
				break
			}
		}
		if b.active > 0 && (!inited || r.done) {
			c.Fail("%d active nodes in a frame taken before Init or after quiescence", b.active)
		}
	}

	wire.List(c, &r.trace, nil, func(c *wire.Coder, te *TraceEntry) {
		c.Int(&te.Pulse)
		wire.ID(c, &te.From)
		wire.ID(c, &te.To)
		c.RawBody(&te.Body)
	})
	if c.Loading() {
		r.resumed = inited
	}
	return nil
}

// restoreFailed returns the runner to its pristine pre-Restore state after
// a failed load, releasing every segment the partial load carved.
func (r *Runner) restoreFailed() {
	r.pulse, r.lastOut, r.msgs = 0, 0, 0
	r.done, r.resumed = false, false
	r.out.Reset()
	r.trace = r.trace[:0]
	r.buf.refill()
	for i := range r.buf.bits {
		r.buf.bits[i] = 0
	}
	r.buf.active = 0
	r.arena.Reset()
}

// RunPulses advances up to n pulses, initializing handlers on the first
// call (unless the runner was restored from a snapshot). It reports
// whether the network is still active; callers interleave Snapshot between
// calls to checkpoint at any pulse, then FinishResult once it returns
// false.
func (r *Runner) RunPulses(n int) bool {
	r.start()
	for ; n > 0; n-- {
		if !r.stepPulse() {
			return false
		}
	}
	return !r.done
}

// FinishResult materializes the Result of a stepped run after RunPulses
// reported quiescence.
func (r *Runner) FinishResult() Result {
	if !r.done {
		panic("syncrun: FinishResult before quiescence")
	}
	return r.finish()
}
