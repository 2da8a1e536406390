package async

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// Engine state plane: versioned snapshot / restore of a Sim between
// events. A snapshot serializes the complete mutable engine state — the
// calendar queue, per-link busy/txSeq/outbox state, node outputs, fault
// and message counters, the delivery trace, and every handler's protocol
// state via its wire.StateCodec — into one pointer-free frame. Restoring
// the frame into an engine built over the same graph, adversary, and
// handler constructor reproduces the interrupted run exactly: the
// continuation's Results, outputs, and traces are byte-identical to the
// uninterrupted run, in every execution mode.
//
// The frame is relocatable: nodes are keyed by global id, links by their
// (from, to) endpoint pair, and events carry (src, dst) with the dense
// LinkID recomputed at restore against whatever graph view the restoring
// engine holds. The K frames of a distributed snapshot can therefore be
// read by any engine at any shard count: decodeEngine takes the whole frame
// set and keeps the records whose owner it hosts — the basis of the shard
// coordinator's distributed snapshot.
//
// Arena segments never serialize as handles: a Body's segment words are
// inlined in the frame and re-carved from the restoring engine's arena, so
// the restored engine's segment lifecycle accounting (Live) matches the
// uninterrupted run's. Trace entries are the one exception — their bodies
// are record-only, never resolved again, so they keep handle images
// verbatim (the same caveat ModeMulti's concurrent allocation already
// places on seg-carrying traced runs).

// Snapshot serializes the engine's complete state into a sealed frame.
// Legal on a quiescent engine, before Run, or between RunSteps calls —
// never while a parallel window is in flight, and not in shard mode (the
// shard coordinator drives per-shard frames itself).
func (s *Sim) Snapshot() ([]byte, error) {
	if s.inWindow {
		return nil, fmt.Errorf("async: Snapshot while a parallel window is in flight")
	}
	if s.shardMode {
		return nil, fmt.Errorf("async: Snapshot on a shard engine (the coordinator snapshots at FLUSH barriers)")
	}
	e := wire.NewSnapshotEnc(&s.arena, s.lastFrame+s.lastFrame/8)
	if err := s.encodeEngine(&e.Enc); err != nil {
		return nil, err
	}
	frame := e.Seal()
	s.lastFrame = len(frame)
	return frame, nil
}

// Restore loads a Snapshot frame into this engine, which must have been
// built over the same graph, adversary, and handler constructor as the
// snapshotted one (validated against the frame header). Any existing run
// state is discarded first. The engine keeps its handlers: each node's
// LoadState replaces that handler's state (see wire.StateCodec), so a
// handle restored into repeatedly — the checkpoint-and-rewind loop — builds
// its handlers once. After a successful restore the next Run (any mode) or
// RunSteps continues the interrupted run; on error the engine is left reset
// and reusable, with no arena segments leaked and its handlers rebuilt
// through the constructor, since a partial decode may have loaded some of
// them.
func (s *Sim) Restore(data []byte) error {
	payload, err := wire.OpenSnapshot(data)
	if err != nil {
		return err
	}
	s.resetRun()
	if err := s.decodeEngine([][]byte{payload}); err != nil {
		s.Reset(s.adv, s.specMk) // releases everything the partial decode carved
		return err
	}
	return nil
}

// RunSteps processes up to n events serially, initializing handlers on the
// first call (unless the engine was restored from a snapshot). It reports
// whether the engine is quiescent — callers interleave Snapshot between
// calls to checkpoint at any event index, then FinishResult at the end.
// Stepped runs are ModeSingle by definition; a restored engine may instead
// be continued with Run in any mode.
func (s *Sim) RunSteps(n uint64) bool {
	if s.g.Sub() {
		panic("async: RunSteps on a Subrange view; shard engines are driven by the internal/shard protocol")
	}
	if s.shardMode {
		panic("async: RunSteps on a shard engine")
	}
	if !s.running {
		s.running = true
		s.initHandlers()
	}
	for ; n > 0 && !s.events.empty(); n-- {
		s.direct.step(s.events.pop())
	}
	return s.events.empty()
}

// FinishResult materializes the Result of a stepped run after RunSteps
// reached quiescence — or, on a shard engine after the coordinator's FINISH,
// this shard's slice of the run: counters cover local nodes only, and the
// coordinator merges across shards. A shard engine's Result carries no
// outputs; they leave the engine only through ShardRawOutputs.
func (s *Sim) FinishResult() Result {
	if !s.events.empty() {
		panic("async: FinishResult before quiescence")
	}
	return s.result()
}

// ShardSnapshotFrame serializes a shard engine's state as one unsealed
// engine frame (the coordinator seals the assembled multi-shard file).
// Must be called at a FLUSH barrier after grants were applied: the staged
// log is empty then, so every pending event lives in exactly one shard's
// queue and the frame set is complete.
func (s *Sim) ShardSnapshotFrame(e *wire.Enc) error {
	if n := len(s.wctx[0].staged); n != 0 {
		return fmt.Errorf("async: shard snapshot with %d staged-but-ungranted events", n)
	}
	return s.encodeEngine(e)
}

// ShardRestoreFrames loads this shard's share of a distributed snapshot —
// all K_old engine frames, whatever K the resumed run uses — into a freshly
// built shard engine (after BeginShard, instead of ShardInit). On error the
// engine is unusable; the coordinator aborts the resume.
func (s *Sim) ShardRestoreFrames(frames [][]byte) error { return s.decodeEngine(frames) }

// encodeEngine appends the engine's state sections: header, counters,
// nodes (output + handler state), links (busy/txSeq/outbox), events, and
// trace.
func (s *Sim) encodeEngine(e *wire.Enc) error {
	// Header: enough to reject a restore into a mismatched engine.
	e.U32(uint32(s.g.N()))
	e.Str(s.adv.Name())
	e.F64(s.lookahead)
	e.Bool(s.keepTrace)
	// Whether Init already ran (false only for a pre-run snapshot, whose
	// restore must still run Init rather than resume).
	e.Bool(s.running || s.resumed)

	// Counters.
	lg := &s.direct.ledger
	e.F64(lg.now)
	e.F64(lg.lastOut)
	e.U64(s.eventSq)
	e.U64(lg.steps)
	e.U64(lg.msgs)
	e.U64(lg.acks)
	e.U64(lg.dropped)
	e.U64(lg.retrans)
	e.U64(lg.undeliv)
	e.I64(int64(lg.outCount))
	e.U32(uint32(len(lg.perProto)))
	for _, n := range lg.perProto {
		e.U64(n)
	}

	// Nodes: output record plus handler state, keyed by global id.
	e.U32(uint32(s.g.NLocal()))
	for i := 0; i < s.g.NLocal(); i++ {
		id := s.nodeBase + graph.NodeID(i)
		e.I32(int32(id))
		if err := s.out.Save(e, i); err != nil {
			return fmt.Errorf("async: node %d: %w", id, err)
		}
		sc, ok := codecOf(s.handlers[i])
		if !ok {
			return fmt.Errorf("async: handler %T of node %d has no wire.StateCodec, or hosts a module without one; engine state cannot be snapshotted", s.handlers[i], id)
		}
		e.Nested(sc)
	}

	// Links: every locally-owned directed link with non-default state,
	// keyed by its (from, to) endpoints. The whole section rides in a blob
	// with a trailing count because the filter runs inside the single pass.
	mark := e.BeginBlob()
	nLinks := 0
	for i := 0; i < s.g.NLocal(); i++ {
		from := s.nodeBase + graph.NodeID(i)
		base := s.g.LinkOffset(from)
		for j := 0; j < s.g.Degree(from); j++ {
			l := base + graph.LinkID(j)
			ob := s.boxes[l]
			if !s.busy[l] && s.txSeq[l] == 0 && (ob == nil || ob.queued == 0) {
				continue
			}
			nLinks++
			e.I32(int32(from))
			e.I32(int32(s.g.LinkDst(l)))
			e.Bool(s.busy[l])
			e.U32(s.txSeq[l])
			if ob == nil || ob.queued == 0 {
				// A drained outbox holds no live rotation state (empty front
				// stages retire on their final pop), so only busy/txSeq carry.
				e.U32(0)
				continue
			}
			ob.encode(e)
		}
	}
	e.EndBlob(mark)
	e.U32(uint32(nLinks))

	// Events, from whichever store holds them (serial queue, or the owner
	// shards if the engine last ran a parallel mode — mutually exclusive),
	// in (t, seq) order: queue order depends on how the events arrived, and
	// the frame must not, so that a restored engine writes the same bytes
	// back.
	evs := s.snapEvs[:0]
	collect := func(ev *event) { evs = append(evs, ev) }
	s.events.forEach(collect)
	for k := range s.shards {
		s.shards[k].forEach(collect)
	}
	slices.SortFunc(evs, func(a, b *event) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	e.U32(uint32(len(evs)))
	for _, ev := range evs {
		e.U8(ev.kind)
		e.U8(ev.attempt)
		e.F64(ev.t)
		e.U64(ev.seq)
		e.I32(int32(ev.src))
		e.I32(int32(ev.dst))
		e.I32(int32(ev.msg.Proto))
		e.I64(int64(ev.msg.Stage))
		e.Body(ev.msg.Body)
	}
	clear(evs)
	s.snapEvs = evs[:0]

	// Trace.
	e.U32(uint32(len(lg.trace)))
	for i := range lg.trace {
		EncodeTraceEntry(e, &lg.trace[i])
	}
	return nil
}

// EncodeTraceEntry appends one delivery-trace record, the form both engine
// frames and the shard protocol's RESULT message carry. Trace bodies are
// record-only, never resolved again, so a segment travels as its handle
// image.
func EncodeTraceEntry(e *wire.Enc, te *TraceEntry) {
	e.F64(te.T)
	e.U64(te.Seq)
	e.I32(int32(te.From))
	e.I32(int32(te.To))
	e.I32(int32(te.Msg.Proto))
	e.I64(int64(te.Msg.Stage))
	e.RawBody(te.Msg.Body)
	e.U8(uint8(te.Kind))
}

// DecodeTraceEntry reads one EncodeTraceEntry record.
func DecodeTraceEntry(d *wire.Dec) TraceEntry {
	te := TraceEntry{T: d.F64(), Seq: d.U64(), From: graph.NodeID(d.I32()), To: graph.NodeID(d.I32())}
	te.Msg.Proto = Proto(d.I32())
	te.Msg.Stage = int(d.I64())
	te.Msg.Body = d.RawBody()
	te.Kind = TraceKind(d.U8())
	return te
}

// localNode reports whether v is hosted by this engine.
func (s *Sim) localNode(v graph.NodeID) bool {
	i := int(v - s.nodeBase)
	return i >= 0 && i < s.g.NLocal()
}

// decodeEngine reads a snapshot's encodeEngine frames into an engine whose
// run state was just reset (its handlers keep theirs until LoadState
// replaces it): the one frame of a Snapshot, or all K_old frames of a
// distributed snapshot resumed at any shard count. Records are keyed by global id, so
// the engine keeps the node, link and event records whose owner it hosts
// (links belong to their sender, events to the node whose handler they
// invoke) and skips the rest without carving their segments. The additive
// counters and the trace are ledgers of the whole run, not of a node range:
// they land on the engine hosting node 0 (the coordinator's RESULT merge
// sums counters back), and clocks take the maximum over frames — each
// frame's ledger folds into the engine's as a window's does — which every
// pending event's timestamp dominates (pending events all lie at or beyond
// the last window boundary, which bounds every engine's clock from above).
// On failure the caller resets the engine, which releases every segment the
// partial decode carved.
func (s *Sim) decodeEngine(frames [][]byte) error {
	n := s.g.N()
	inGraph := func(v graph.NodeID) bool { return v >= 0 && int(v) < n }
	host := s.localNode(0)
	seen := make([]bool, s.g.NLocal())
	nSeen := 0
	inited := false
	for fi, frame := range frames {
		d := wire.NewDec(frame, &s.arena)
		if fn := d.U32(); !d.Failed() && int(fn) != n {
			return fmt.Errorf("async: snapshot of a %d-node graph restored into %d nodes", fn, n)
		}
		if name := d.Str(); !d.Failed() && name != s.adv.Name() {
			return fmt.Errorf("async: snapshot under adversary %q restored under %q", name, s.adv.Name())
		}
		if la := d.F64(); !d.Failed() && la != s.lookahead {
			return fmt.Errorf("async: snapshot lookahead %g, engine has %g", la, s.lookahead)
		}
		if kt := d.Bool(); !d.Failed() && kt != s.keepTrace {
			return fmt.Errorf("async: snapshot traced=%v, engine traced=%v", kt, s.keepTrace)
		}
		if it := d.Bool(); fi == 0 {
			inited = it
		} else if !d.Failed() && it != inited {
			return fmt.Errorf("async: snapshot frames disagree on whether Init ran (frame %d says %v)", fi, it)
		}

		l := ledger{now: d.F64(), lastOut: d.F64()}
		s.eventSq = max(s.eventSq, d.U64())
		l.steps, l.msgs, l.acks = d.U64(), d.U64(), d.U64()
		l.dropped, l.retrans, l.undeliv = d.U64(), d.U64(), d.U64()
		l.outCount = int(d.I64())
		for i, np := 0, int(d.U32()); i < np && !d.Failed(); i++ {
			l.perProto = bumpProtoBy(l.perProto, Proto(i), d.U64())
		}
		if !host {
			l = ledger{now: l.now, lastOut: l.lastOut}
		}
		s.direct.fold(&l)

		for i, nn := 0, int(d.U32()); i < nn && !d.Failed(); i++ {
			id := graph.NodeID(d.I32())
			if d.Failed() {
				break
			}
			if !inGraph(id) {
				d.Fail("node record %d outside the %d-node graph", id, n)
				break
			}
			if !s.localNode(id) {
				outval.SkipRecord(d)
				d.SkipBlob()
				continue
			}
			li := s.li(id)
			if seen[li] {
				d.Fail("node %d has two records", id)
				break
			}
			seen[li] = true
			nSeen++
			s.out.Load(d, int(li))
			sc, ok := s.handlers[li].(wire.StateCodec)
			if !ok {
				return fmt.Errorf("async: handler %T of node %d does not implement wire.StateCodec; snapshot cannot be restored", s.handlers[li], id)
			}
			d.Nested(sc)
		}

		ld := wire.NewDec(d.SkipBlob(), &s.arena)
		for i, nl := 0, int(d.U32()); i < nl && !ld.Failed(); i++ {
			from := graph.NodeID(ld.I32())
			to := graph.NodeID(ld.I32())
			busy := ld.Bool()
			txSeq := ld.U32()
			nStages := int(ld.U32())
			if ld.Failed() {
				break
			}
			if !inGraph(from) || !inGraph(to) {
				ld.Fail("link record %d->%d outside the %d-node graph", from, to, n)
				break
			}
			// Reconstruct the outbox structure verbatim — including drained
			// protoFIFO rotation slots and the round-robin cursor — because the
			// rotation's first-appearance order decides future injection order.
			// A foreign link's record is walked the same way, bodies skipped.
			// Local records are carved from the direct context's slab, as a
			// queue built during Init would be.
			local := s.localNode(from)
			sl := &s.direct.obs
			var ob *outbox
			var tail *stageQueue
			if local {
				l := s.g.LinkBetween(from, to)
				if l < 0 {
					ld.Fail("link record %d->%d along a non-edge", from, to)
					break
				}
				s.busy[l] = busy
				s.txSeq[l] = txSeq
				if ob = s.boxes[l]; ob == nil && nStages > 0 {
					ob = sl.boxes.get()
					s.boxes[l] = ob
				}
				if ob != nil {
					tail = ob.stages
					for tail != nil && tail.up != nil {
						tail = tail.up
					}
				}
			}
			prevStage := 0
			for si := 0; si < nStages && !ld.Failed(); si++ {
				stage := int(ld.I64())
				next := int(ld.U32())
				nProtos := int(ld.U32())
				if si > 0 && stage <= prevStage {
					ld.Fail("link %d->%d stages out of order (%d after %d)", from, to, stage, prevStage)
					break
				}
				prevStage = stage
				if next < 0 || (nProtos > 0 && next >= nProtos) || (nProtos == 0 && next != 0) {
					ld.Fail("link %d->%d stage %d rotation cursor %d outside %d protos", from, to, stage, next, nProtos)
					break
				}
				var sq *stageQueue
				if local {
					sq = sl.stages.get()
					sq.stage = stage
					if tail == nil {
						ob.stages = sq
					} else {
						tail.up = sq
					}
					tail = sq
				}
				for pi := 0; pi < nProtos && !ld.Failed(); pi++ {
					proto := Proto(ld.I32())
					nMsgs := int(ld.U32())
					var pf *protoFIFO
					if local {
						pf = sq.addProto(sl, proto)
						if pi == next {
							sq.cur = pf
						}
					}
					for mi := 0; mi < nMsgs && !ld.Failed(); mi++ {
						if !local {
							ld.SkipBody()
							continue
						}
						pf.append(sl, Msg{Proto: proto, Stage: stage, Body: ld.Body()})
						sq.queued++
						ob.queued++
					}
				}
			}
		}
		if err := ld.Err(); err != nil {
			return err
		}

		for i, ne := 0, int(d.U32()); i < ne && !d.Failed(); i++ {
			var ev event
			ev.kind = d.U8()
			ev.attempt = d.U8()
			ev.t = d.F64()
			ev.seq = d.U64()
			ev.src = graph.NodeID(d.I32())
			ev.dst = graph.NodeID(d.I32())
			ev.msg.Proto = Proto(d.I32())
			ev.msg.Stage = int(d.I64())
			if d.Failed() {
				break
			}
			if ev.kind != evDeliver && ev.kind != evAckArrive && ev.kind != evRetrans {
				d.Fail("event of unknown kind %d", ev.kind)
				break
			}
			if !inGraph(ev.src) || !inGraph(ev.dst) {
				d.Fail("event kind %d %d->%d outside the %d-node graph", ev.kind, ev.src, ev.dst, n)
				break
			}
			if !s.localNode(ownerOf(&ev)) {
				d.SkipBody()
				continue
			}
			ev.msg.Body = d.Body()
			if d.Failed() {
				break
			}
			// The dense LinkID is recomputed against this engine's graph view; a
			// delivery whose sender is remote carries the complement of the local
			// back link instead (see admitInbound).
			remoteSrc := ev.kind == evDeliver && !s.localNode(ev.src)
			if remoteSrc {
				ev.link = s.g.LinkBetween(ev.dst, ev.src)
			} else {
				ev.link = s.g.LinkBetween(ev.src, ev.dst)
			}
			if ev.link < 0 {
				d.Fail("event kind %d %d->%d along a non-edge", ev.kind, ev.src, ev.dst)
				break
			}
			if remoteSrc {
				ev.link = ^ev.link
			}
			s.events.push(&ev)
		}

		for i, nt := 0, int(d.U32()); i < nt && !d.Failed(); i++ {
			if te := DecodeTraceEntry(d); host && !d.Failed() {
				s.direct.trace = append(s.direct.trace, te)
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("async: snapshot frame %d has %d trailing bytes", fi, d.Remaining())
		}
	}
	if nSeen != len(seen) {
		return fmt.Errorf("async: snapshot carries %d node records of the %d this engine hosts", nSeen, len(seen))
	}
	if len(frames) > 1 {
		// Each frame's trace is a (T, Seq)-sorted run with globally unique keys.
		tr := s.direct.trace
		sort.Slice(tr, func(i, j int) bool { return TraceLess(&tr[i], &tr[j]) })
	}
	s.resumed = inited
	return nil
}
