package async

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Shard-staged execution: the engine half of multi-process sharded runs
// (internal/shard owns the sockets and the coordinator).
//
// One Sim is built per shard over a graph.Subrange view; BeginShard flips
// it into shard-staged mode, where every schedule call parks in a log
// keyed by its triggering event's (t, seq) instead of entering the local
// queue. The cross-process protocol then alternates:
//
//   - ShardInit / ShardRunWindow execute local handler code, staging all
//     schedule calls;
//   - the worker flushes the staged log (ShardStaged) to the coordinator,
//     which k-way merges every shard's log by (trigT, trigSeq) — exactly
//     the ModeMulti barrier merge, across processes — and grants event
//     seqs in the merged order;
//   - ShardGrant pushes locally-owned events with their granted seqs,
//     ShardInject admits remote-born events routed here;
//   - the coordinator opens the next window at the global minimum pending
//     timestamp (ShardPendingMinT over all shards and in-flight grants).
//
// Because the serial engine also assigns seqs in (t, seq)-sorted order of
// the triggering events within each window (every schedule call lands at
// or past the window's end — the bounded-lag safety argument), the grant
// order reproduces serial seq assignment exactly, making per-shard
// Results, outputs, and traces merge to the byte-identical serial run.

// Exported event kinds for the cross-shard frame plane.
const (
	ShardEvDeliver   = evDeliver
	ShardEvAckArrive = evAckArrive
)

// ShardStagedView is one staged schedule call as the shard worker ships
// it: the merge key (TrigT, TrigSeq), the event's own fields, and the
// global node whose shard must execute it.
type ShardStagedView struct {
	TrigT   float64
	TrigSeq uint64
	T       float64
	Kind    uint8
	Src     graph.NodeID
	Dst     graph.NodeID
	Msg     Msg
	Owner   graph.NodeID
}

// BeginShard flips the engine into shard-staged mode. The Sim must have
// been built over the shard's Subrange view (or the whole graph when
// K=1). Incompatible with Run, DenseOutputs, and the speculative mode.
func (s *Sim) BeginShard() {
	if s.running {
		panic("async: BeginShard on a running engine")
	}
	if s.denseOut {
		panic("async: shard mode transports outputs as typed bodies; DenseOutputs is unsupported")
	}
	s.running = true
	s.shardMode = true
}

// ShardInit runs every local handler's Init in ascending node order,
// staging the schedule calls keyed (0, global node id) — globally unique
// because shards partition the node set, and merging to exactly the
// serial engine's init order because it issues schedule calls in
// ascending node order too.
func (s *Sim) ShardInit() {
	for i := range s.handlers {
		s.direct.curSeq = uint64(s.nodeBase) + uint64(i)
		s.handlers[i].Init(&s.nodes[i])
	}
	s.direct.curSeq = 0
	s.direct.now = 0
}

// ShardRunWindow drains every local event in [wStart, wStart+MinDelay)
// through the serial engine's processEvent, staging all schedule calls.
func (s *Sim) ShardRunWindow(wStart float64) {
	wEnd := wStart + s.lookahead
	for {
		ev := s.events.popBefore(wEnd)
		if ev == nil {
			return
		}
		s.step(ev)
	}
}

// ShardPendingMinT returns the earliest timestamp still queued locally
// (staged-but-ungranted events are the coordinator's to account for).
func (s *Sim) ShardPendingMinT() (float64, bool) { return s.events.minT() }

// ShardStagedCount returns the staged-log length since the last flush.
func (s *Sim) ShardStagedCount() int { return len(s.shardLog) }

// ShardStaged returns staged entry i. Entries are sorted by (TrigT,
// TrigSeq): windows process events in that order and a single event's
// calls share its key in call order.
func (s *Sim) ShardStaged(i int) ShardStagedView {
	se := &s.shardLog[i]
	return ShardStagedView{
		TrigT:   se.trigT,
		TrigSeq: se.trigSeq,
		T:       se.ev.t,
		Kind:    se.ev.kind,
		Src:     se.ev.src,
		Dst:     se.ev.dst,
		Msg:     se.ev.msg,
		Owner:   ownerOf(&se.ev),
	}
}

// ShardGrant applies the coordinator's seq grants, aligned by index with
// the staged log: local entries enter the queue with their granted seq;
// remote entries (already extracted as frames, remote[i] true) are
// dropped — their grant is consumed by the destination shard's
// ShardInject. The log resets for the next window.
func (s *Sim) ShardGrant(seqs []uint64, remote []bool) {
	if len(seqs) != len(s.shardLog) || len(remote) != len(s.shardLog) {
		panic(fmt.Sprintf("async: grant of %d/%d seqs for %d staged entries",
			len(seqs), len(remote), len(s.shardLog)))
	}
	for i := range s.shardLog {
		if remote[i] {
			continue
		}
		ev := &s.shardLog[i].ev
		ev.seq = seqs[i]
		s.events.push(ev)
	}
	// Release the staged Msg values (and any segment handles already
	// extracted) for the garbage collector's sake: the log is long-lived.
	for i := range s.shardLog {
		s.shardLog[i] = stagedEv{}
	}
	s.shardLog = s.shardLog[:0]
}

// ShardInject admits one remote-born event routed to this shard. The
// local link id is recomputed here: a delivery's forward link lives on
// the sender's shard, so the event instead carries the complement of the
// local back link (dst→src), which processEvent recognizes by sign; an
// ack-return's forward link (src→dst) is local to this shard, the
// original sender's.
func (s *Sim) ShardInject(seq uint64, t float64, kind uint8, src, dst graph.NodeID, m Msg) {
	var link graph.LinkID
	switch kind {
	case evDeliver:
		back := s.g.LinkBetween(dst, src)
		if back < 0 {
			panic(fmt.Sprintf("async: remote delivery %d->%d along a non-edge", src, dst))
		}
		link = ^back
	case evAckArrive:
		link = s.g.LinkBetween(src, dst)
		if link < 0 {
			panic(fmt.Sprintf("async: remote ack %d->%d along a non-edge", src, dst))
		}
	default:
		panic(fmt.Sprintf("async: remote event of unknown kind %d", kind))
	}
	s.events.push(&event{t: t, seq: seq, link: link, src: src, dst: dst, kind: kind, msg: m})
}

// ShardRawOutputs visits every local node that produced an output, with
// its outval-encoded body — the form the RESULT message transports, so
// the coordinator's DecodeSlot reproduces the serial engine's decoded
// map bit for bit. Outputs that outval cannot encode (the boxed escape
// slot) and segment-carrying bodies have no cross-process representation
// and error out.
func (s *Sim) ShardRawOutputs(fn func(id graph.NodeID, b wire.Body) error) error {
	outB := s.loadedOutBodies()
	for i, has := range s.hasOut {
		if !has {
			continue
		}
		var b wire.Body
		if outB != nil {
			b = outB[i]
		}
		if b.Kind == 0 {
			id := s.nodeBase + graph.NodeID(i)
			return fmt.Errorf("async: node %d output a boxed value; shard mode transports only outval-encodable outputs", id)
		}
		if b.Seg.Len() != 0 {
			return fmt.Errorf("async: node %d output a segment-carrying body; segments do not outlive a shard run", s.nodeBase+graph.NodeID(i))
		}
		if err := fn(s.nodeBase+graph.NodeID(i), b); err != nil {
			return err
		}
	}
	return nil
}

// ShardSteps reports events processed so far (the coordinator sums and
// reports them; each shard also enforces its own MaxEvents cap).
func (s *Sim) ShardSteps() uint64 { return s.steps }

// Arena exposes the run's segment arena: the shard transport re-homes
// inbound frame segments into it and releases outbound ones after
// serialization, keeping the per-message lifecycle accounting intact
// (Live() returns to zero after a completed run).
func (s *Sim) Arena() *wire.Arena { return &s.arena }
