// Package shard runs one bounded-lag async engine per OS process over a
// contiguous node partition and merges their executions into a result
// byte-identical to the single-process serial engine.
//
// The protocol is hub-and-spoke over unix-domain sockets with one round
// trip per global window:
//
//	worker k                       coordinator
//	--------                       -----------
//	JOIN{k}           ──────▶
//	                  ◀──────      HELLO{spec, cuts, self, adversary, ...,
//	                                     checkpoint path when resuming}
//	ShardInit, or ShardRestoreFrames
//	from the checkpoint file
//	FLUSH{minT, groups,
//	      localMin}   ──────▶      k-way merge all groups by (trigT, trigSeq),
//	                               grant each its count of consecutive seqs,
//	                               route the remote calls' frames
//	                  ◀──────      OPEN{wStart, grant runs, inbound, snap?}
//	ShardAdmit: local calls and
//	inbound enter the queue by seq
//	SNAPFRAME{engine} ──────▶      (only when snap: seal the K frames to disk)
//	ShardRunWindow
//	FLUSH{...}        ──────▶      ... until no shard has pending events ...
//	                  ◀──────      FINISH
//	RESULT{...}       ──────▶      merge per-shard results
//
// A FLUSH carries the worker's staged log one group per triggering event:
// the trigger's (trigT, trigSeq), how many schedule calls it issued, and
// only those calls whose owner lives on another shard — each as its index
// in the group, timestamp, owner and event frame — followed by one minimum
// timestamp over all the calls that stay local. Its cost follows the
// triggering events and the cross-shard frames, not the schedule calls.
// The OPEN returns the worker's grants as (start, length) runs that cover
// its staged log in order, plus the inbound frames routed to it, each with
// its granted seq (its group's start plus its index).
//
// Correctness rests on the bounded-lag safety argument extended across
// processes: every event executed in window [wStart, wStart+MinDelay)
// schedules only events at t ≥ wStart+MinDelay (the adversary's declared
// MinDelay, enforced at dispatch, plus fl(t+d) monotonicity in exact
// floating point), so a window's staged schedule calls — sorted by their
// triggering event's (t, seq) — are exactly the calls the serial engine
// would issue, in its order. Merge keys are globally unique: trigSeq is a
// granted (hence unique) event seq during windows and the global node id
// during Init, and node ownership is disjoint. One trigger's calls are
// contiguous in its owner's log and in the serial order, so granting a
// group its count of consecutive seqs assigns them exactly as the serial
// engine's schedule calls would, and seqs drive every tie-break
// downstream. The worker admits its local calls and its inbound events as
// one merge by seq, so each queue slot receives keys in serial push order.
//
// Every payload but HELLO's JSON is coded by one method per record run
// through a wire.Coder, saving on one side and loading on the other — the
// codec snapshots use, so a value has one byte form whether it crosses a
// socket or a checkpoint. Bodies travel as raw images plus the
// referenced arena segment's words (see wire.Enc.Body): serialization
// is memcpy. Segments are re-homed into the receiving engine's arena on the
// way in and released from the sender's on the way out, so each arena's
// Live() count settles to zero exactly as in a single-process run.
package shard

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Message types. Every message is [type u8][payload len u32][payload],
// little-endian, same-machine only (the workers are re-execs of this very
// binary).
const (
	msgJoin byte = 1 + iota
	msgHello
	msgFlush
	msgOpen
	msgFinish
	msgResult
	// msgSnapFrame carries one worker's engine frame to the coordinator
	// when an OPEN's snapshot flag was set (worker → coordinator).
	msgSnapFrame
)

// maxMsgLen bounds a single protocol message; a 10M-node shard's flush
// stays far below this, so anything larger is a corrupt stream.
const maxMsgLen = 1 << 31

// writeMsg sends one message. The header is built in w's own buffer (a
// local array would escape through the io.Writer call), so sending costs
// no allocation.
func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	hdr := binary.LittleEndian.AppendUint32(append(w.AvailableBuffer(), typ), uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readMsg receives one message into buf, growing it if needed. The header
// is read in place from r's buffer; like io.ReadFull, a clean close before
// it is io.EOF and a close inside it io.ErrUnexpectedEOF.
func readMsg(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	hdr, err := r.Peek(5)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ, n := hdr[0], binary.LittleEndian.Uint32(hdr[1:])
	r.Discard(5)
	if n > maxMsgLen {
		return 0, nil, fmt.Errorf("shard: oversized %d-byte message", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return typ, buf, nil
}

// finish closes the decode of one received message: the decoder's sticky
// error (a short or malformed payload) or unread trailing bytes.
func finish(d *wire.Dec, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("shard: %s message: %w", what, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("shard: %d trailing bytes in %s message", n, what)
	}
	return nil
}

// Event frames: one cross-shard event in flight, a blob inside FLUSH and
// OPEN. Layout:
//
//	kind u8 | proto i32 | stage i64 | src i32 | dst i32 | Body+segment
//
// The timestamp and granted seq travel in the enclosing envelope (the
// FLUSH remote call / OPEN inbound record); the local LinkID deliberately does
// not travel — link ids are shard-local, so the receiver recomputes its
// own (see async.Sim.ShardAdmit). Loading re-homes any segment into the
// decoder's arena; a malformed frame latches its sticky error.
func codeEvent(c *wire.Coder, ev *async.ShardEvent) {
	c.U8(&ev.Kind)
	wire.ID(c, &ev.Msg.Proto)
	c.Int(&ev.Msg.Stage)
	wire.ID(c, &ev.Src)
	wire.ID(c, &ev.Dst)
	c.Body(&ev.Msg.Body)
}

// flushMsg is one FLUSH: the worker's wheel minimum, the time its last
// window took (the first FLUSH: its startup), its executed-event total, and
// its staged log. Layout:
//
//	hasMin u8 | minT f64 | execNs u64 | steps u64 | nGroups u32 | groups | localMin f64
//	group:  trigT f64 | trigSeq u64 | count u32 | nRemote u32 | nRemote × remote
//	remote: idx u32 | evT f64 | owner i32 | event frame blob
type flushMsg struct {
	hasMin bool
	minT   float64
	execNs uint64
	steps  uint64
	groups []logGroup
	// remotes holds every group's remote calls, group after group.
	remotes []logRemote
	// localMin is the minimum timestamp of the staged calls that stay on
	// the worker, +Inf when there are none.
	localMin float64
}

// logGroup is one triggering event's staged schedule calls.
type logGroup struct {
	trigT   float64
	trigSeq uint64
	count   uint32 // schedule calls the trigger issued
	remotes uint32 // how many are remote: the next that many flushMsg.remotes
}

// logRemote is one staged call whose owner lives on another shard. The
// coordinator routes its frame without reading it.
type logRemote struct {
	idx   uint32 // position among its group's calls
	evT   float64
	owner graph.NodeID
	frame []byte
}

// code codes one FLUSH. Loading reuses f's slices, and its frames view the
// decoder's input. A remote call indexed past its group, or out of order
// within it, is a *async.ShardError: its granted seq would fall in another
// group's run. A short payload latches the decoder's sticky error for
// finish to report.
func (f *flushMsg) code(c *wire.Coder) (err error) {
	c.Bool(&f.hasMin)
	c.F64(&f.minT)
	c.U64(&f.execNs)
	c.U64(&f.steps)
	rs := f.remotes
	if c.Loading() {
		f.remotes = f.remotes[:0]
	}
	wire.List(c, &f.groups, nil, func(c *wire.Coder, g *logGroup) {
		c.F64(&g.trigT)
		c.U64(&g.trigSeq)
		c.U32(&g.count)
		c.U32(&g.remotes)
		for j := uint32(0); j < g.remotes && !c.Failed() && err == nil; j++ {
			var r logRemote
			if !c.Loading() {
				r, rs = rs[0], rs[1:]
			}
			c.U32(&r.idx)
			c.F64(&r.evT)
			wire.ID(c, &r.owner)
			if c.Bytes(&r.frame); !c.Loading() || c.Failed() {
				continue
			}
			if r.idx >= g.count || (j > 0 && r.idx <= f.remotes[len(f.remotes)-1].idx) {
				err = &async.ShardError{Record: "FLUSH group", Reason: fmt.Sprintf(
					"remote call at index %d of a %d-call group, after %d remote calls", r.idx, g.count, j)}
			}
			f.remotes = append(f.remotes, r)
		}
	})
	c.F64(&f.localMin)
	return err
}

// openMsg is one OPEN: the next window's start, the grant runs covering
// the worker's staged log, the events routed to it in ascending seq, and
// whether to ship an engine frame before running. Layout:
//
//	wStart f64 | nRuns u32 | nRuns × (start u64 | len u32)
//	| nInbound u32 | nInbound × inbound | snap u8
//	inbound: seq u64 | evT f64 | event frame blob
type openMsg struct {
	wStart  float64
	runs    []async.ShardRun
	inbound []routed
	snap    bool
}

// routed is one event routed to a worker: its granted seq, its time and
// its event frame, whose bytes the coordinator forwards from the FLUSH
// that staged it.
type routed struct {
	seq   uint64
	evT   float64
	frame []byte
}

// code codes one OPEN. Loading reuses o's slices, and its frames view the
// decoder's input (events decodes them).
func (o *openMsg) code(c *wire.Coder) {
	c.F64(&o.wStart)
	wire.List(c, &o.runs, nil, func(c *wire.Coder, r *async.ShardRun) {
		c.U64(&r.Start)
		c.U32(&r.Len)
	})
	wire.List(c, &o.inbound, nil, func(c *wire.Coder, r *routed) {
		c.U64(&r.seq)
		c.F64(&r.evT)
		c.Bytes(&r.frame)
	})
	c.Bool(&o.snap)
}

// events decodes o's routed frames into evs (reused), re-homing their
// segments into a through d. Each frame must decode exactly.
func (o *openMsg) events(evs []async.ShardEvent, d *wire.Dec, a *wire.Arena) ([]async.ShardEvent, error) {
	evs = evs[:0]
	for _, r := range o.inbound {
		ev := async.ShardEvent{Seq: r.seq, T: r.evT}
		d.Reset(r.frame, a)
		codeEvent(d.Coder(), &ev)
		if err := finish(d, "OPEN event frame"); err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// resultMsg is one RESULT: the worker's share of the run's counters, its
// footprint, its outputs and its trace. Layout:
//
//	time f64 | quiesceTime f64 | msgs, acks, dropped, retrans, undeliverable u64
//	| steps u64 | segLive u64 | nodes, links, boundary u32
//	| graphBytes, engineBytes, heapMB u64 | nProtos u32 | nProtos × (proto i32 | msgs u64)
//	| outputs blob | nTrace u32 | nTrace × trace entry
//	output: id i32 | raw body, ids ascending
type resultMsg struct {
	// res carries the counters, PerProto and Trace. Loading, its OutSet and
	// OutBodies are the run's dense columns, which the outputs go into.
	res  async.Result
	info ShardInfo
	// outputs visits the worker's outputs (saving).
	outputs func(func(graph.NodeID, wire.Body))
	// lo and hi bound the ids a load accepts: the sending worker's nodes.
	lo, hi graph.NodeID
}

// code codes one RESULT. Loading refuses, as a *async.ShardError naming
// the node, any output record the worker owning [lo, hi) could not have
// sent: an id outside that range or not above the one before (so no node
// outputs twice, across shards too), a kind no decoder knows, or a
// segment, which does not outlive the worker's arena.
func (m *resultMsg) code(c *wire.Coder) (err error) {
	r, si := &m.res, &m.info
	c.F64(&r.Time)
	c.F64(&r.QuiesceTime)
	c.U64(&r.Msgs)
	c.U64(&r.Acks)
	c.U64(&r.Dropped)
	c.U64(&r.Retrans)
	c.U64(&r.Undeliverable)
	c.U64(&si.Steps)
	c.Int(&si.SegLive)
	for _, p := range [...]*int{&si.Nodes, &si.Links, &si.Boundary} {
		n := uint32(*p)
		c.U32(&n)
		*p = int(n)
	}
	c.I64(&si.GraphBytes)
	c.I64(&si.EngineBytes)
	c.I64(&si.HeapMB)
	wire.Map(c, &r.PerProto, cmp.Compare[async.Proto], func(c *wire.Coder, p *async.Proto, n *uint64) {
		wire.ID(c, p)
		c.U64(n)
	})
	// Outputs ride in a blob: their count is known only after the visit.
	c.Blob(func(c *wire.Coder) {
		if !c.Loading() {
			m.outputs(func(id graph.NodeID, b wire.Body) { codeOutput(c, &id, &b) })
			return
		}
		for prev := m.lo - 1; c.More() && !c.Failed() && err == nil; {
			var id graph.NodeID
			var b wire.Body
			codeOutput(c, &id, &b)
			var reason string
			switch {
			case c.Failed():
				return
			case id <= prev || id >= m.hi:
				reason = fmt.Sprintf("outside (%d, %d): ids ascend within the worker's nodes [%d, %d)", prev, m.hi, m.lo, m.hi)
			case !outval.Known(b.Kind):
				reason = fmt.Sprintf("kind %d, which no decoder is registered for", b.Kind)
			case b.Seg != (wire.Seg{}):
				reason = "a segment handle, which does not outlive the worker's arena"
			default:
				r.OutSet[id], r.OutBodies[id], prev = true, b, id
				continue
			}
			err = &async.ShardError{Record: "RESULT output", Reason: fmt.Sprintf("node %d: %s", id, reason)}
		}
	})
	wire.List(c, &r.Trace, nil, func(c *wire.Coder, te *async.TraceEntry) { te.Code(c) })
	return err
}

// codeOutput codes one RESULT output record: the node and its body, raw.
func codeOutput(c *wire.Coder, id *graph.NodeID, b *wire.Body) {
	wire.ID(c, id)
	c.RawBody(b)
}
