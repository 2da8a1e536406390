package async

import (
	"fmt"
	"sort"

	"repro/internal/graph"
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
	e := wire.NewEnc(&s.arena)
	if err := s.encodeEngine(e); err != nil {
		return nil, err
	}
	return wire.SealSnapshot(e.Bytes()), nil
}

// Restore loads a Snapshot frame into this engine, which must have been
// built over the same graph, adversary, and handler constructor as the
// snapshotted one (validated against the frame header). Any existing run
// state is discarded first. After a successful restore the next Run (any
// mode) or RunSteps continues the interrupted run; on error the engine is
// left reset and reusable, with no arena segments leaked.
func (s *Sim) Restore(data []byte) error {
	payload, err := wire.OpenSnapshot(data)
	if err != nil {
		return err
	}
	s.Reset(s.adv, s.specMk)
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
		if !s.resumed {
			for i := range s.handlers {
				s.handlers[i].Init(&s.nodes[i])
			}
		}
	}
	for ; n > 0 && !s.events.empty(); n-- {
		s.step(s.events.pop())
	}
	return s.events.empty()
}

// FinishResult materializes the Result of a stepped run after RunSteps
// reached quiescence — or, on a shard engine after the coordinator's FINISH,
// this shard's slice of the run: counters and outputs cover local nodes
// only, and the coordinator merges across shards.
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
	if len(s.shardLog) != 0 {
		return fmt.Errorf("async: shard snapshot with %d staged-but-ungranted events", len(s.shardLog))
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
	e.F64(s.now)
	e.F64(s.lastOutputTime)
	e.U64(s.eventSq)
	e.U64(s.steps)
	e.U64(s.msgs)
	e.U64(s.acks)
	e.U64(s.dropped)
	e.U64(s.retrans)
	e.U64(s.undeliv)
	e.I64(int64(s.outCount))
	e.U32(uint32(len(s.perProto)))
	for _, n := range s.perProto {
		e.U64(n)
	}

	// Nodes: output slot plus handler state, keyed by global id.
	outB, outA := s.loadedOutBodies(), s.loadedOutAnys()
	e.U32(uint32(s.g.NLocal()))
	for i := 0; i < s.g.NLocal(); i++ {
		id := s.nodeBase + graph.NodeID(i)
		e.I32(int32(id))
		e.Bool(s.hasOut[i])
		if s.hasOut[i] {
			var b wire.Body
			if outB != nil {
				b = outB[i]
			}
			if b.Kind == 0 {
				var v any
				if outA != nil {
					v = outA[i]
				}
				return fmt.Errorf("async: node %d output a boxed %T; snapshots carry only outval-encodable outputs", id, v)
			}
			e.Body(b)
		}
		sc, ok := s.handlers[i].(wire.StateCodec)
		if !ok {
			return fmt.Errorf("async: handler %T of node %d does not implement wire.StateCodec; engine state cannot be snapshotted", s.handlers[i], id)
		}
		if pr, ok := s.handlers[i].(StateCodecProbe); ok && !pr.StateCodecOK() {
			return fmt.Errorf("async: handler %T of node %d hosts a module without a state codec; engine state cannot be snapshotted", s.handlers[i], id)
		}
		mark := e.BeginBlob()
		sc.SaveState(e)
		e.EndBlob(mark)
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
			e.U32(uint32(len(ob.stages)))
			for si := range ob.stages {
				sq := &ob.stages[si]
				e.I64(int64(sq.stage))
				e.U32(uint32(sq.next))
				e.U32(uint32(len(sq.protos)))
				for pi := range sq.protos {
					pf := &sq.protos[pi]
					e.I32(int32(pf.proto))
					e.U32(uint32(len(pf.msgs) - pf.head))
					for mi := pf.head; mi < len(pf.msgs); mi++ {
						e.Body(pf.msgs[mi].Body)
					}
				}
			}
		}
	}
	e.EndBlob(mark)
	e.U32(uint32(nLinks))

	// Events, from whichever store holds them (serial queue, or the owner
	// shards if the engine last ran a parallel mode — mutually exclusive).
	nEvents := s.events.size
	for k := range s.shards {
		nEvents += s.shards[k].size
	}
	e.U32(uint32(nEvents))
	encodeEv := func(ev *event) {
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
	s.events.forEach(encodeEv)
	for k := range s.shards {
		s.shards[k].forEach(encodeEv)
	}

	// Trace: record-only bodies, handle images verbatim.
	e.U32(uint32(len(s.trace)))
	for i := range s.trace {
		te := &s.trace[i]
		e.F64(te.T)
		e.U64(te.Seq)
		e.I32(int32(te.From))
		e.I32(int32(te.To))
		e.I32(int32(te.Msg.Proto))
		e.I64(int64(te.Msg.Stage))
		e.RawBody(te.Msg.Body)
		e.U8(uint8(te.Kind))
	}
	return nil
}

// localNode reports whether v is hosted by this engine.
func (s *Sim) localNode(v graph.NodeID) bool {
	i := int(v - s.nodeBase)
	return i >= 0 && i < s.g.NLocal()
}

// decodeEngine reads a snapshot's encodeEngine frames into a just-reset
// engine: the one frame of a Snapshot, or all K_old frames of a distributed
// snapshot resumed at any shard count. Records are keyed by global id, so
// the engine keeps the node, link and event records whose owner it hosts
// (links belong to their sender, events to the node whose handler they
// invoke) and skips the rest without carving their segments. The additive
// counters and the trace are ledgers of the whole run, not of a node range:
// they land on the engine hosting node 0 (the coordinator's RESULT merge
// sums counters back), and clocks take the maximum over frames, which every
// pending event's timestamp dominates (pending events all lie at or beyond
// the last window boundary, which bounds every engine's clock from above).
// On failure the caller resets the engine, which releases every segment the
// partial decode carved.
func (s *Sim) decodeEngine(frames [][]byte) error {
	n := s.g.N()
	inGraph := func(v graph.NodeID) bool { return v >= 0 && int(v) < n }
	ledger := s.localNode(0)
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

		s.now = max(s.now, d.F64())
		s.lastOutputTime = max(s.lastOutputTime, d.F64())
		s.eventSq = max(s.eventSq, d.U64())
		steps, msgs, acks := d.U64(), d.U64(), d.U64()
		dropped, retrans, undeliv := d.U64(), d.U64(), d.U64()
		outCount := int(d.I64())
		if ledger {
			s.steps += steps
			s.msgs += msgs
			s.acks += acks
			s.dropped += dropped
			s.retrans += retrans
			s.undeliv += undeliv
			s.outCount += outCount
		}
		for i, np := 0, int(d.U32()); i < np && !d.Failed(); i++ {
			if c := d.U64(); ledger {
				s.perProto = bumpProtoBy(s.perProto, Proto(i), c)
			}
		}

		for i, nn := 0, int(d.U32()); i < nn && !d.Failed(); i++ {
			id := graph.NodeID(d.I32())
			hasOut := d.Bool()
			if d.Failed() {
				break
			}
			if !inGraph(id) {
				d.Fail("node record %d outside the %d-node graph", id, n)
				break
			}
			if !s.localNode(id) {
				if hasOut {
					d.SkipBody()
				}
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
			if hasOut {
				b := d.Body()
				if !d.Failed() && b.Kind == 0 {
					d.Fail("node %d output record has zero kind", id)
					break
				}
				s.hasOut[li] = true
				s.outBodies()[li] = b
			}
			sc, ok := s.handlers[li].(wire.StateCodec)
			if !ok {
				return fmt.Errorf("async: handler %T of node %d does not implement wire.StateCodec; snapshot cannot be restored", s.handlers[li], id)
			}
			end := d.BeginBlob()
			if d.Failed() {
				break
			}
			// Bind before load (see Rebinder): on a freshly built engine no
			// callback has told the handler which node it serves yet.
			if rb, ok := s.handlers[li].(Rebinder); ok {
				rb.Rebind(&s.nodes[li])
			}
			sc.LoadState(d)
			d.EndBlob(end)
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
			local := s.localNode(from)
			var ob *outbox
			if local {
				l := s.g.LinkBetween(from, to)
				if l < 0 {
					ld.Fail("link record %d->%d along a non-edge", from, to)
					break
				}
				s.busy[l] = busy
				s.txSeq[l] = txSeq
				if ob = s.boxes[l]; ob == nil && nStages > 0 {
					ob = &outbox{}
					s.boxes[l] = ob
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
				sq := stageQueue{stage: stage, next: next}
				for pi := 0; pi < nProtos && !ld.Failed(); pi++ {
					pf := protoFIFO{proto: Proto(ld.I32())}
					nMsgs := int(ld.U32())
					for mi := 0; mi < nMsgs && !ld.Failed(); mi++ {
						if !local {
							ld.SkipBody()
							continue
						}
						pf.msgs = append(pf.msgs, Msg{Proto: pf.proto, Stage: stage, Body: ld.Body()})
					}
					if local {
						sq.queued += len(pf.msgs)
						sq.protos = append(sq.protos, pf)
					}
				}
				if local {
					ob.stages = append(ob.stages, sq)
					ob.queued += sq.queued
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
			// back link instead (see ShardInject).
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
			var te TraceEntry
			te.T = d.F64()
			te.Seq = d.U64()
			te.From = graph.NodeID(d.I32())
			te.To = graph.NodeID(d.I32())
			te.Msg.Proto = Proto(d.I32())
			te.Msg.Stage = int(d.I64())
			te.Msg.Body = d.RawBody()
			te.Kind = TraceKind(d.U8())
			if ledger && !d.Failed() {
				s.trace = append(s.trace, te)
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
		sort.Slice(s.trace, func(i, j int) bool { return TraceLess(&s.trace[i], &s.trace[j]) })
	}
	s.resumed = inited
	return nil
}
