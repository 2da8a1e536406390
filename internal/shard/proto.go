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
// Every payload but HELLO's JSON is a wire.Enc stream read back with a
// wire.Dec — the codec snapshots use, so a value has one byte form whether
// it crosses a socket or a checkpoint. Bodies travel as raw images plus the
// referenced arena segment's words (see wire.AppendBodySeg): serialization
// is memcpy. Segments are re-homed into the receiving engine's arena on the
// way in and released from the sender's on the way out, so each arena's
// Live() count settles to zero exactly as in a single-process run.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/async"
	"repro/internal/graph"
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
// own (see async.Sim.ShardAdmit).
func encodeEventFrame(e *wire.Enc, kind uint8, src, to graph.NodeID, m async.Msg) {
	e.U8(kind)
	e.I32(int32(m.Proto))
	e.I64(int64(m.Stage))
	e.I32(int32(src))
	e.I32(int32(to))
	e.Body(m.Body)
}

// decodeEventFrame reads one event frame, re-homing any segment into d's
// arena; a malformed frame latches d's sticky error.
func decodeEventFrame(d *wire.Dec) (kind uint8, src, to graph.NodeID, m async.Msg) {
	kind = d.U8()
	m.Proto = async.Proto(d.I32())
	m.Stage = int(d.I64())
	src = graph.NodeID(d.I32())
	to = graph.NodeID(d.I32())
	m.Body = d.Body()
	return kind, src, to, m
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

func encodeFlush(e *wire.Enc, f *flushMsg) {
	e.Bool(f.hasMin)
	e.F64(f.minT)
	e.U64(f.execNs)
	e.U64(f.steps)
	e.U32(uint32(len(f.groups)))
	rs := f.remotes
	for _, g := range f.groups {
		e.F64(g.trigT)
		e.U64(g.trigSeq)
		e.U32(g.count)
		e.U32(g.remotes)
		for _, r := range rs[:g.remotes] {
			e.U32(r.idx)
			e.F64(r.evT)
			e.I32(int32(r.owner))
			mark := e.BeginBlob()
			e.Raw(r.frame)
			e.EndBlob(mark)
		}
		rs = rs[g.remotes:]
	}
	e.F64(f.localMin)
}

// decodeFlush reads one FLUSH into f, reusing its slices; frames view d's
// buffer. A remote call indexed past its group, or out of order within it,
// is a *async.ShardError: its granted seq would fall in another group's
// run. A short payload latches d's sticky error for finish to report.
func decodeFlush(d *wire.Dec, f *flushMsg) error {
	f.hasMin = d.Bool()
	f.minT = d.F64()
	f.execNs = d.U64()
	f.steps = d.U64()
	f.groups, f.remotes = f.groups[:0], f.remotes[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		g := logGroup{trigT: d.F64(), trigSeq: d.U64(), count: d.U32(), remotes: d.U32()}
		for j := uint32(0); j < g.remotes && !d.Failed(); j++ {
			r := logRemote{idx: d.U32(), evT: d.F64(), owner: graph.NodeID(d.I32()), frame: d.SkipBlob()}
			if d.Failed() {
				break
			}
			if r.idx >= g.count || (j > 0 && r.idx <= f.remotes[len(f.remotes)-1].idx) {
				return &async.ShardError{Record: "FLUSH group", Reason: fmt.Sprintf(
					"remote call at index %d of a %d-call group, after %d remote calls", r.idx, g.count, j)}
			}
			f.remotes = append(f.remotes, r)
		}
		f.groups = append(f.groups, g)
	}
	f.localMin = d.F64()
	return nil
}

// openMsg is one OPEN as the worker applies it: the next window's start,
// the grant runs covering its staged log, the events routed to it in
// ascending seq, and whether to ship an engine frame before running.
// Layout:
//
//	wStart f64 | nRuns u32 | nRuns × (start u64 | len u32)
//	| nInbound u32 | nInbound × inbound | snap u8
//	inbound: seq u64 | evT f64 | event frame blob
//
// The coordinator writes it with appendInbound and encodeOpen.
type openMsg struct {
	wStart  float64
	runs    []async.ShardRun
	inbound []async.ShardEvent
	snap    bool
}

// appendInbound appends one routed record to an OPEN's inbound section.
func appendInbound(e *wire.Enc, seq uint64, evT float64, frame []byte) {
	e.U64(seq)
	e.F64(evT)
	mark := e.BeginBlob()
	e.Raw(frame)
	e.EndBlob(mark)
}

// encodeOpen writes one OPEN around n inbound records built by
// appendInbound.
func encodeOpen(e *wire.Enc, wStart float64, runs []async.ShardRun, n int, inbound []byte, snap bool) {
	e.F64(wStart)
	e.U32(uint32(len(runs)))
	for _, r := range runs {
		e.U64(r.Start)
		e.U32(r.Len)
	}
	e.U32(uint32(n))
	e.Raw(inbound)
	e.Bool(snap)
}

// decodeOpen reads one OPEN into o, reusing its slices and re-homing frame
// segments into d's arena. A short or malformed payload latches d's sticky
// error for finish to report.
func decodeOpen(d *wire.Dec, o *openMsg) {
	o.wStart = d.F64()
	o.runs, o.inbound = o.runs[:0], o.inbound[:0]
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		o.runs = append(o.runs, async.ShardRun{Start: d.U64(), Len: d.U32()})
	}
	for i, n := 0, int(d.U32()); i < n && !d.Failed(); i++ {
		ev := async.ShardEvent{Seq: d.U64(), T: d.F64()}
		end := d.BeginBlob()
		ev.Kind, ev.Src, ev.Dst, ev.Msg = decodeEventFrame(d)
		d.EndBlob(end)
		o.inbound = append(o.inbound, ev)
	}
	o.snap = d.Bool()
}
