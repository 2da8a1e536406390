package syncrun

import (
	"fmt"
	"math/bits"

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
	e := wire.NewEnc(&r.arena)
	// Header.
	e.U32(uint32(r.g.N()))
	e.Bool(r.keepTrace)
	e.Bool(r.started || r.resumed)

	// Counters.
	e.Int(r.pulse)
	e.Int(r.lastOut)
	e.U64(r.msgs)
	e.Bool(r.done)

	// Nodes: output slot plus handler state, in index order.
	outB, outA := r.loadedOutBodies(), r.loadedOutAnys()
	for i := 0; i < r.g.N(); i++ {
		e.Bool(r.hasOut[i])
		if r.hasOut[i] {
			var b wire.Body
			if outB != nil {
				b = outB[i]
			}
			if b.Kind == 0 {
				var v any
				if outA != nil {
					v = outA[i]
				}
				return nil, fmt.Errorf("syncrun: node %d output a boxed %T; snapshots carry only outval-encodable outputs", i, v)
			}
			e.Body(b)
		}
		sc, ok := r.handlers[i].(wire.StateCodec)
		if !ok {
			return nil, fmt.Errorf("syncrun: handler %T of node %d does not implement wire.StateCodec; runner state cannot be snapshotted", r.handlers[i], i)
		}
		mark := e.BeginBlob()
		sc.SaveState(e)
		e.EndBlob(mark)
	}

	// Next pulse's pending deliveries, as per-receiver batches in receiver
	// order (batch order is the serial application order).
	nChains := 0
	for to := 0; to < r.g.N(); to++ {
		if r.buf.ep[to] == r.buf.epoch {
			nChains++
		}
	}
	e.U32(uint32(nChains))
	for to := 0; to < r.g.N(); to++ {
		if r.buf.ep[to] != r.buf.epoch {
			continue
		}
		e.I32(int32(to))
		batch := r.buf.batch(graph.NodeID(to))
		e.U32(uint32(len(batch)))
		for _, in := range batch {
			e.I32(int32(in.From))
			e.Body(in.Body)
		}
	}

	// Activation set, in index order off the bitmap.
	e.U32(uint32(r.buf.active))
	for w, word := range r.buf.bits {
		base := w << 6
		for word != 0 {
			e.I32(int32(base + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}

	// Trace.
	e.U32(uint32(len(r.trace)))
	for i := range r.trace {
		te := &r.trace[i]
		e.Int(te.Pulse)
		e.I32(int32(te.From))
		e.I32(int32(te.To))
		e.RawBody(te.Body)
	}
	return wire.SealSnapshot(e.Bytes()), nil
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
	if n := d.U32(); !d.Failed() && int(n) != r.g.N() {
		return fmt.Errorf("syncrun: snapshot of a %d-node graph restored into %d nodes", n, r.g.N())
	}
	if kt := d.Bool(); !d.Failed() && kt != r.keepTrace {
		return fmt.Errorf("syncrun: snapshot traced=%v, runner traced=%v", kt, r.keepTrace)
	}
	inited := d.Bool()

	r.pulse = d.Int()
	r.lastOut = d.Int()
	r.msgs = d.U64()
	r.done = d.Bool()

	for i := 0; i < r.g.N() && !d.Failed(); i++ {
		if d.Bool() {
			b := d.Body()
			if !d.Failed() && b.Kind == 0 {
				d.Fail("node %d output record has zero kind", i)
				break
			}
			r.hasOut[i] = true
			r.outBodies()[i] = b
		}
		sc, ok := r.handlers[i].(wire.StateCodec)
		if !ok {
			r.restoreFailed()
			return fmt.Errorf("syncrun: handler %T of node %d does not implement wire.StateCodec; snapshot cannot be restored", r.handlers[i], i)
		}
		end := d.BeginBlob()
		if d.Failed() {
			break
		}
		sc.LoadState(d)
		d.EndBlob(end)
	}

	nChains := int(d.U32())
	for c := 0; c < nChains && !d.Failed(); c++ {
		to := graph.NodeID(d.I32())
		cnt := int(d.U32())
		if d.Failed() {
			break
		}
		if int(to) < 0 || int(to) >= r.g.N() {
			d.Fail("delivery chain for node %d outside the graph", to)
			break
		}
		if r.buf.ep[to] == r.buf.epoch {
			d.Fail("two delivery chains for node %d", to)
			break
		}
		r.buf.ep[to], r.buf.lo[to] = r.buf.epoch, int32(len(r.buf.in))
		for i := 0; i < cnt && !d.Failed(); i++ {
			from := graph.NodeID(d.I32())
			body := d.Body()
			if !d.Failed() {
				r.buf.in = append(r.buf.in, Incoming{From: from, Body: body})
			}
		}
		r.buf.hi[to] = int32(len(r.buf.in))
	}

	nActive := int(d.U32())
	for i := 0; i < nActive && !d.Failed(); i++ {
		v := graph.NodeID(d.I32())
		if int(v) < 0 || int(v) >= r.g.N() {
			d.Fail("active node %d outside the graph", v)
			break
		}
		r.buf.activate(v)
	}

	nTrace := int(d.U32())
	for i := 0; i < nTrace && !d.Failed(); i++ {
		var te TraceEntry
		te.Pulse = d.Int()
		te.From = graph.NodeID(d.I32())
		te.To = graph.NodeID(d.I32())
		te.Body = d.RawBody()
		if !d.Failed() {
			r.trace = append(r.trace, te)
		}
	}
	if err := d.Err(); err != nil {
		r.restoreFailed()
		return err
	}
	if d.Remaining() != 0 {
		r.restoreFailed()
		return fmt.Errorf("syncrun: snapshot frame has %d trailing bytes", d.Remaining())
	}
	r.resumed = inited
	return nil
}

// restoreFailed returns the runner to its pristine pre-Restore state after
// a failed decode, releasing every segment the partial decode carved.
func (r *Runner) restoreFailed() {
	r.pulse, r.lastOut, r.msgs = 0, 0, 0
	r.done = false
	for i := range r.hasOut {
		r.hasOut[i] = false
	}
	if outB := r.loadedOutBodies(); outB != nil {
		for i := range outB {
			outB[i] = wire.Body{}
		}
	}
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
	mode := r.start()
	for ; n > 0; n-- {
		if !r.stepPulse(mode) {
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
