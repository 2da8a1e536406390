package async

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Shard-staged execution: the engine half of multi-process sharded runs
// (internal/shard owns the sockets and the coordinator).
//
// One Sim is built per shard over a graph.Subrange view; BeginShard flips
// it into shard-staged mode, where handlers run through one worker context
// whose schedule calls stage keyed by their triggering event's (t, seq),
// exactly as a ModeMulti worker's do, instead of entering the local queue.
// The cross-process protocol then alternates:
//
//   - ShardInit / ShardRunWindow execute local handler code, staging all
//     schedule calls, and fold the context's ledger in as a window barrier
//     does (the event cap is checked there);
//   - ShardLog walks the staged log one group per triggering event — its
//     key, its call count, and the calls whose owner lives on another
//     shard — plus the minimum timestamp of the calls that stay local;
//   - the coordinator k-way merges every shard's groups by (trigT,
//     trigSeq) — exactly the ModeMulti barrier merge, across processes —
//     grants each group its count of consecutive seqs in merged order, and
//     routes each remote call with the seq its index in the group picks;
//   - ShardAdmit reads the OPEN's grant runs along the staged log and
//     admits the local calls and the routed inbound events as one merge by
//     seq;
//   - the coordinator opens the next window at the global minimum pending
//     timestamp (ShardPendingMinT over all shards and the flushed calls).
//
// Because the serial engine also assigns seqs in (t, seq)-sorted order of
// the triggering events within each window (every schedule call lands at
// or past the window's end — the bounded-lag safety argument), the grant
// order reproduces serial seq assignment exactly, making per-shard
// Results, outputs, and traces merge to the byte-identical serial run.
// Grants per group are exact because one trigger's calls are contiguous in
// its owner's log and in the serial order, and its (trigT, trigSeq) key is
// globally unique. Admitting in seq order is what keeps the queue cheap: a
// wheel slot that the serial engine fills as a sorted run (every slot under
// Fixed delays) stays a sorted run on every shard instead of turning into a
// heap at the first routed event whose seq falls between two local ones.

// ShardEvent is one event crossing a shard boundary: a staged call whose
// owner lives on another shard, as ShardLog hands it out for framing (Seq
// not yet granted), or a routed event as ShardAdmit takes it in.
type ShardEvent struct {
	Seq  uint64
	T    float64
	Kind uint8
	Src  graph.NodeID
	Dst  graph.NodeID
	Msg  Msg
}

// Owner is the node whose handler runs the event, hence the shard it is
// routed to.
func (e *ShardEvent) Owner() graph.NodeID {
	if e.Kind == evDeliver {
		return e.Dst
	}
	return e.Src
}

// ShardRun is one run of an OPEN's grants: Len consecutive seqs from Start.
type ShardRun struct {
	Start uint64
	Len   uint32
}

// ShardError is a shard-protocol record its receiver refuses instead of
// panicking on: an OPEN whose grant runs do not cover the staged log or
// whose inbound event belongs to another shard or runs along a non-edge,
// or a FLUSH whose remote call is indexed past its group. A corrupt socket
// message surfaces as one.
type ShardError struct {
	Record string // the malformed record, e.g. "OPEN inbound event"
	Reason string
}

func (e *ShardError) Error() string {
	return "shard protocol: malformed " + e.Record + ": " + e.Reason
}

// BeginShard flips the engine into shard-staged mode. The Sim must have
// been built over the shard's Subrange view (or the whole graph when
// K=1). Incompatible with Run and the speculative mode; the output form
// (DenseOutputs) does not apply, as outputs leave through ShardRawOutputs.
func (s *Sim) BeginShard() {
	if s.running {
		panic("async: BeginShard on a running engine")
	}
	s.running = true
	s.shardMode = true
	s.ensureWindowState(1)
	for i := range s.nodes {
		s.nodes[i].ctxIdx = 1
	}
}

// ShardInit runs every local handler's Init in ascending node order,
// staging the schedule calls keyed (0, global node id) — globally unique
// because shards partition the node set, and merging to exactly the
// serial engine's init order because it issues schedule calls in
// ascending node order too.
func (s *Sim) ShardInit() {
	c := &s.wctx[0]
	for i := range s.handlers {
		c.curSeq = uint64(s.nodeBase) + uint64(i)
		s.handlers[i].Init(&s.nodes[i])
	}
	s.foldWindow()
}

// ShardRunWindow drains every local event in [wStart, wStart+MinDelay)
// through the worker context, staging all schedule calls.
func (s *Sim) ShardRunWindow(wStart float64) {
	s.wctx[0].drain(&s.events, wStart+s.lookahead)
	s.foldWindow()
}

// ShardPendingMinT returns the earliest timestamp still queued locally
// (staged-but-ungranted events are the coordinator's to account for).
func (s *Sim) ShardPendingMinT() (float64, bool) { return s.events.minT() }

// ShardLog walks the staged log for a FLUSH, one triggering event at a
// time and in log order, which is (trigT, trigSeq) order: windows process
// events in that order and a single event's calls share its key. group
// receives each trigger's key and the number of schedule calls it issued;
// remote then receives each of those calls whose owner lives on another
// shard, with its index within the group (ev is valid only during the
// call). ShardLog returns the minimum timestamp of the calls that stay
// local, +Inf when none do.
func (s *Sim) ShardLog(group func(trigT float64, trigSeq uint64, count int), remote func(idx int, ev *ShardEvent)) float64 {
	staged := s.wctx[0].staged
	localMin := math.Inf(1)
	var out ShardEvent
	for lo := 0; lo < len(staged); {
		key := &staged[lo]
		hi := lo + 1
		for hi < len(staged) && staged[hi].trigT == key.trigT && staged[hi].trigSeq == key.trigSeq {
			hi++
		}
		group(key.trigT, key.trigSeq, hi-lo)
		for i := lo; i < hi; i++ {
			ev := &staged[i].ev
			if s.localNode(ev.owner()) {
				localMin = min(localMin, ev.t)
				continue
			}
			out = ShardEvent{T: ev.t, Kind: ev.kind, Src: ev.src, Dst: ev.dst, Msg: ev.msg()}
			remote(i-lo, &out)
		}
		lo = hi
	}
	return localMin
}

// ShardAdmit applies one OPEN. The grant runs, read in order, hand the
// staged log its seqs entry by entry; inbound holds the remote-born events
// routed here, in ascending seq. The local entries and the inbound events
// enter the queue as one merge by seq, so every wheel slot receives its
// keys in the order the serial engine pushed them. Remote entries only
// consume their seq: the destination shard admits them. The staged log
// resets for the next window.
//
// A grant total other than the staged count, or an inbound event of an
// unknown kind, with a proto above maxProto, owned by another shard or
// along a non-edge, is a *ShardError; the engine is unusable after one.
func (s *Sim) ShardAdmit(runs []ShardRun, inbound []ShardEvent) error {
	staged := s.wctx[0].staged
	total := 0
	for _, r := range runs {
		total += int(r.Len)
	}
	if total != len(staged) {
		return &ShardError{Record: "OPEN grant runs",
			Reason: fmt.Sprintf("%d seqs granted for %d staged calls", total, len(staged))}
	}
	in, run := 0, -1
	var next uint64
	var left uint32
	for i := range staged {
		for left == 0 {
			run++
			next, left = runs[run].Start, runs[run].Len
		}
		seq := next
		next, left = next+1, left-1
		ev := &staged[i].ev
		if !s.localNode(ev.owner()) {
			continue
		}
		for ; in < len(inbound) && inbound[in].Seq < seq; in++ {
			if err := s.admitInbound(&inbound[in]); err != nil {
				return err
			}
		}
		ev.seq = seq
		s.events.push(ev)
	}
	for ; in < len(inbound); in++ {
		if err := s.admitInbound(&inbound[in]); err != nil {
			return err
		}
	}
	s.wctx[0].staged = staged[:0]
	return nil
}

// admitInbound queues one remote-born event. The local link id is
// recomputed here: a delivery's forward link lives on the sender's shard,
// so the event instead carries the complement of the local back link
// (dst→src), which step recognizes by sign; an ack-return's forward link
// (src→dst) is local to this shard, the original sender's.
func (s *Sim) admitInbound(e *ShardEvent) error {
	if e.Kind != evDeliver && e.Kind != evAckArrive {
		return &ShardError{Record: "OPEN inbound event", Reason: fmt.Sprintf("unknown kind %d", e.Kind)}
	}
	if e.Msg.Proto < 0 || e.Msg.Proto > maxProto {
		return &ShardError{Record: "OPEN inbound event", Reason: fmt.Sprintf("proto %d outside [0, %d]", e.Msg.Proto, maxProto)}
	}
	owner := e.Owner()
	if !s.localNode(owner) {
		return &ShardError{Record: "OPEN inbound event",
			Reason: fmt.Sprintf("node %d is not owned by the shard hosting [%d, %d)", owner, s.nodeBase, s.nodeBase+graph.NodeID(s.g.NLocal()))}
	}
	var link graph.LinkID
	if e.Kind == evDeliver {
		link = s.g.LinkBetween(e.Dst, e.Src)
	} else {
		link = s.g.LinkBetween(e.Src, e.Dst)
	}
	if link < 0 {
		return &ShardError{Record: "OPEN inbound event", Reason: fmt.Sprintf("%d->%d is a non-edge", e.Src, e.Dst)}
	}
	if e.Kind == evDeliver {
		link = ^link
	}
	s.events.push(&event{t: e.T, seq: e.Seq, evCell: newCell(e.Kind, link, e.Src, e.Dst, e.Msg, 0)})
	return nil
}

// ShardRawOutputs visits every local node that produced an output, in
// ascending id, with its outval-encoded body — the form the RESULT message
// transports, so the coordinator's dense merge holds the serial engine's
// bodies bit for bit. The coordinator refuses a segment-carrying body,
// whose handle does not outlive this engine's arena.
func (s *Sim) ShardRawOutputs(fn func(id graph.NodeID, b wire.Body)) {
	s.out.Each(func(i int, b wire.Body) { fn(s.nodeBase+graph.NodeID(i), b) })
}

// ShardSteps reports events processed so far (the coordinator sums and
// reports them; each shard also enforces its own MaxEvents cap).
func (s *Sim) ShardSteps() uint64 { return s.direct.steps }

// Arena exposes the run's segment arena: the shard transport re-homes
// inbound frame segments into it and releases outbound ones after
// serialization, keeping the per-message lifecycle accounting intact
// (Live() returns to zero after a completed run).
func (s *Sim) Arena() *wire.Arena { return &s.arena }
