package async

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// read by any engine at any shard count: loadFrames takes the whole frame
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
	if err := s.frame(e.Coder(), nil); err != nil {
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
	if err := s.loadFrames([][]byte{payload}); err != nil {
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
	return s.frame(e.Coder(), nil)
}

// ShardRestoreFrames loads this shard's share of a distributed snapshot —
// all K_old engine frames, whatever K the resumed run uses — into a freshly
// built shard engine (after BeginShard, instead of ShardInit). On error the
// engine is unusable; the coordinator aborts the resume.
func (s *Sim) ShardRestoreFrames(frames [][]byte) error { return s.loadFrames(frames) }

// frameLoad is what a restore carries across the frames it reads.
type frameLoad struct {
	fi     int  // the frame being read
	inited bool // whether Init ran, as frame 0 says
	seen   []bool
	nSeen  int
	minT   float64 // the earliest event this engine keeps
}

// loadFrames reads a snapshot's engine frames into an engine whose run
// state was just reset (its handlers keep theirs until LoadState replaces
// it): the one frame of a Snapshot, or all K_old frames of a distributed
// snapshot resumed at any shard count. Records are keyed by global id, so
// the engine keeps the node, link and event records whose owner it hosts
// (links belong to their sender, events to the node whose handler they
// invoke) and skips the rest without carving their segments. The additive
// counters and the trace are ledgers of the whole run, not of a node range:
// they land on the engine hosting node 0 (the coordinator's RESULT merge
// sums counters back), and clocks take the maximum over frames — each
// frame's ledger folds into the engine's as a window's does — which every
// pending event's timestamp dominates (pending events all lie at or beyond
// the last window boundary, which bounds every engine's clock from above),
// so an event before the restored clock is refused. On failure the caller
// resets the engine, which releases every segment the partial load carved.
func (s *Sim) loadFrames(frames [][]byte) error {
	ld := frameLoad{seen: make([]bool, s.g.NLocal()), minT: math.Inf(1)}
	for fi, frame := range frames {
		ld.fi = fi
		d := wire.NewDec(frame, &s.arena)
		if err := s.frame(d.Coder(), &ld); err != nil {
			return err
		}
		if err := d.Err(); err != nil {
			return err
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("async: snapshot frame %d has %d trailing bytes", fi, d.Remaining())
		}
	}
	if ld.nSeen != len(ld.seen) {
		return fmt.Errorf("async: snapshot carries %d node records of the %d this engine hosts", ld.nSeen, len(ld.seen))
	}
	if now := s.direct.now; !(ld.minT >= now) {
		return fmt.Errorf("async: snapshot holds an event at t=%g, before the restored clock %g", ld.minT, now)
	}
	if len(frames) > 1 {
		// Each frame's trace is a (T, Seq)-sorted run with globally unique keys.
		tr := s.direct.trace
		sort.Slice(tr, func(i, j int) bool { return TraceLess(&tr[i], &tr[j]) })
	}
	s.resumed = ld.inited
	return nil
}

// frameHeader is enough of an engine frame to reject a restore into a
// mismatched engine.
type frameHeader struct {
	n         uint32
	adv       string
	lookahead float64
	traced    bool
	// inited is false only for a pre-run snapshot, whose restore must still
	// run Init rather than resume.
	inited bool
}

func (h *frameHeader) code(c *wire.Coder) {
	c.U32(&h.n)
	c.Str(&h.adv)
	c.F64(&h.lookahead)
	c.Bool(&h.traced)
	c.Bool(&h.inited)
}

// frame codes one engine frame: header, ledger, nodes (output record and
// handler state), links (busy flag, txSeq, outbox), events and trace.
// Saving (ld nil) writes this engine's state; loading reads one frame of a
// restore (see loadFrames).
func (s *Sim) frame(c *wire.Coder, ld *frameLoad) error {
	own := frameHeader{uint32(s.g.N()), s.adv.Name(), s.lookahead, s.keepTrace, s.running || s.resumed}
	h := own
	if h.code(c); c.Loading() && !c.Failed() {
		if ld.fi == 0 {
			ld.inited = h.inited
		}
		switch own.inited = h.inited; {
		case h != own:
			return fmt.Errorf("async: snapshot of %d nodes under %q, lookahead %g, traced=%v, restored into %d nodes under %q, lookahead %g, traced=%v",
				h.n, h.adv, h.lookahead, h.traced, own.n, own.adv, own.lookahead, own.traced)
		case h.inited != ld.inited:
			return fmt.Errorf("async: snapshot frames disagree on whether Init ran (frame %d says %v)", ld.fi, h.inited)
		}
	}

	l, sq := &s.direct.ledger, &s.eventSq
	if c.Loading() {
		l, sq = &ledger{}, new(uint64)
	}
	if l.code(c, sq); c.Loading() {
		s.eventSq = max(s.eventSq, *sq)
		if !s.localNode(0) {
			*l = ledger{now: l.now, lastOut: l.lastOut}
		}
		s.direct.fold(l)
	}

	// Nodes: output record plus handler state, keyed by global id.
	for i, n := 0, c.Count(s.g.NLocal()); i < n && !c.Failed(); i++ {
		id := s.nodeBase + graph.NodeID(i)
		if wire.ID(c, &id); c.Loading() {
			if c.Failed() {
				break
			}
			if !s.inGraph(id) {
				c.Fail("node record %d outside the %d-node graph", id, s.g.N())
				break
			}
			if !s.localNode(id) {
				var handler []byte
				s.out.Record(c, -1)
				c.Bytes(&handler)
				continue
			}
			if ld.seen[s.li(id)] {
				c.Fail("node %d has two records", id)
				break
			}
			ld.seen[s.li(id)] = true
			ld.nSeen++
		}
		li := s.li(id)
		s.out.Record(c, int(li))
		sc, ok := codecOf(s.handlers[li])
		if !ok {
			return fmt.Errorf("async: handler %T of node %d has no wire.StateCodec, or hosts a module without one; engine state cannot be snapshotted or restored", s.handlers[li], id)
		}
		c.Nested(sc)
	}

	// Links: every locally-owned directed link with non-default state. The
	// section is a blob with a trailing count, because saving filters the
	// links inside the one pass that writes them.
	nLinks := 0
	c.Blob(func(c *wire.Coder) {
		for ; c.More() && !c.Failed(); nLinks++ {
			s.link(c, 0, -1)
		}
		for i := 0; i < s.g.NLocal() && !c.Loading(); i++ {
			from := s.nodeBase + graph.NodeID(i)
			base := s.g.LinkOffset(from)
			for j := 0; j < s.g.Degree(from); j++ {
				l := base + graph.LinkID(j)
				if ob := s.boxes[l]; s.busy[l] || s.txSeq[l] != 0 || (ob != nil && ob.queued > 0) {
					s.link(c, from, l)
					nLinks++
				}
			}
		}
	})
	count := uint32(nLinks)
	if c.U32(&count); c.Loading() && !c.Failed() && int(count) != nLinks {
		c.Fail("link section holds %d records, its count says %d", nLinks, count)
	}

	// Events, from whichever store holds them (serial queue, or the owner
	// shards if the engine last ran a parallel mode — mutually exclusive),
	// in (t, seq) order: queue order depends on how the events arrived, and
	// the frame must not, so that a restored engine writes the same bytes
	// back.
	evs := s.snapEvs[:0]
	if !c.Loading() {
		collect := func(k evKey, ev *evCell) { evs = append(evs, evRef{k, ev}) }
		s.events.forEach(collect)
		for k := range s.shards {
			s.shards[k].forEach(collect)
		}
		slices.SortFunc(evs, func(a, b evRef) int {
			if c := cmp.Compare(a.k.t, b.k.t); c != 0 {
				return c
			}
			return cmp.Compare(a.k.seq, b.k.seq)
		})
	}
	for i, n := 0, c.Count(len(evs)); i < n && !c.Failed(); i++ {
		var ev event
		if !c.Loading() {
			ev = event{t: evs[i].k.t, seq: evs[i].k.seq, evCell: *evs[i].c}
		}
		s.event(c, &ev, ld)
	}
	clear(evs)
	s.snapEvs = evs[:0]

	// Trace. A load reads it into the trace's spare capacity and keeps it
	// only on the engine hosting node 0.
	tr := s.direct.trace
	if c.Loading() {
		tr = tr[len(tr):]
	}
	wire.List(c, &tr, nil, func(c *wire.Coder, te *TraceEntry) { te.Code(c) })
	if c.Loading() && s.localNode(0) {
		s.direct.trace = append(s.direct.trace, tr...)
	}
	return nil
}

// code codes the ledger's clocks and counters (not its trace) and the
// engine's event sequence counter, which the frame carries among them.
func (l *ledger) code(c *wire.Coder, eventSq *uint64) {
	c.F64(&l.now)
	c.F64(&l.lastOut)
	c.U64(eventSq)
	c.U64(&l.steps)
	c.U64(&l.msgs)
	c.U64(&l.acks)
	c.U64(&l.dropped)
	c.U64(&l.retrans)
	c.U64(&l.undeliv)
	c.Int(&l.outCount)
	wire.List(c, &l.perProto, nil, (*wire.Coder).U64)
}

// link codes one link record, keyed by its (from, to) endpoints: the busy
// flag, txSeq and the outbox. Saving, l is the link from sends on. Loading
// (l < 0), a record whose sender this engine does not host is walked with
// its bodies skipped.
func (s *Sim) link(c *wire.Coder, from graph.NodeID, l graph.LinkID) {
	to, busy, txSeq := graph.NodeID(-1), false, uint32(0)
	if l >= 0 {
		to, busy, txSeq = s.g.LinkDst(l), s.busy[l], s.txSeq[l]
	}
	wire.ID(c, &from)
	wire.ID(c, &to)
	c.Bool(&busy)
	c.U32(&txSeq)
	if !c.Loading() {
		// A drained outbox holds no live rotation state (empty front stages
		// retire on their final pop), so only busy/txSeq carry.
		var drained outbox
		ob := &drained
		if b := s.boxes[l]; b != nil && b.queued > 0 {
			ob = b
		}
		ob.code(c, nil, false)
		return
	}
	if c.Failed() {
		return
	}
	if !s.inGraph(from) || !s.inGraph(to) {
		c.Fail("link record %d->%d outside the %d-node graph", from, to, s.g.N())
		return
	}
	if s.localNode(from) {
		if l = s.g.LinkBetween(from, to); l < 0 {
			c.Fail("link record %d->%d along a non-edge", from, to)
			return
		}
		if s.busy[l] || s.txSeq[l] != 0 || s.boxes[l] != nil {
			c.Fail("link %d->%d has two records", from, to)
			return
		}
		s.busy[l], s.txSeq[l] = busy, txSeq
	}
	// Local records are carved from the direct context's slab, as a queue
	// built during Init would be; a foreign one (l < 0) is walked through a
	// record handed straight back.
	sl := &s.direct.obs
	ob := sl.boxes.get()
	if ob.code(c, sl, l >= 0); l < 0 || ob.stages == nil {
		ob.free(sl)
		return
	}
	s.boxes[l] = ob
}

// evRef is a queued event as a frame collects it, its cell read in place.
type evRef struct {
	k evKey
	c *evCell
}

// event codes one pending event record. Loading, ev is zero; the record
// is checked and, when this engine hosts its owner, queued, with its dense
// LinkID recomputed against this engine's graph view; otherwise its body
// is skipped.
func (s *Sim) event(c *wire.Coder, ev *event, ld *frameLoad) {
	c.U8(&ev.kind)
	c.U8(&ev.attempt)
	c.F64(&ev.t)
	c.U64(&ev.seq)
	wire.ID(c, &ev.src)
	wire.ID(c, &ev.dst)
	proto := Proto(ev.proto)
	wire.ID(c, &proto)
	c.Int(&ev.stage)
	if !c.Loading() {
		c.Body(&ev.body)
		return
	}
	ev.proto = uint16(proto)
	switch {
	case c.Failed():
		return
	case ev.kind != evDeliver && ev.kind != evAckArrive && ev.kind != evRetrans:
		c.Fail("event of unknown kind %d", ev.kind)
		return
	case proto < 0 || proto > maxProto:
		c.Fail("event kind %d %d->%d carries proto %d, outside [0, %d]", ev.kind, ev.src, ev.dst, proto, maxProto)
		return
	case !s.inGraph(ev.src) || !s.inGraph(ev.dst):
		c.Fail("event kind %d %d->%d outside the %d-node graph", ev.kind, ev.src, ev.dst, s.g.N())
		return
	case math.IsNaN(ev.t) || math.IsInf(ev.t, 0):
		c.Fail("event kind %d %d->%d at t=%g", ev.kind, ev.src, ev.dst, ev.t)
		return
	case !s.localNode(ev.owner()):
		c.SkipBody()
		return
	}
	if c.Body(&ev.body); c.Failed() {
		return
	}
	// A delivery whose sender is remote carries the complement of the local
	// back link instead (see admitInbound).
	remoteSrc := ev.kind == evDeliver && !s.localNode(ev.src)
	if remoteSrc {
		ev.link = s.g.LinkBetween(ev.dst, ev.src)
	} else {
		ev.link = s.g.LinkBetween(ev.src, ev.dst)
	}
	if ev.link < 0 {
		c.Fail("event kind %d %d->%d along a non-edge", ev.kind, ev.src, ev.dst)
		return
	}
	if remoteSrc {
		ev.link = ^ev.link
	}
	ld.minT = min(ld.minT, ev.t)
	s.events.push(ev)
}

// Code codes one delivery-trace record, the form both engine frames and
// the shard protocol's RESULT message carry. Trace bodies are record-only,
// never resolved again, so a segment travels as its handle image.
func (te *TraceEntry) Code(c *wire.Coder) {
	c.F64(&te.T)
	c.U64(&te.Seq)
	wire.ID(c, &te.From)
	wire.ID(c, &te.To)
	wire.ID(c, &te.Msg.Proto)
	c.Int(&te.Msg.Stage)
	c.RawBody(&te.Msg.Body)
	c.U8((*uint8)(&te.Kind))
}

// localNode reports whether v is hosted by this engine.
func (s *Sim) localNode(v graph.NodeID) bool {
	i := int(v - s.nodeBase)
	return i >= 0 && i < s.g.NLocal()
}

// inGraph reports whether v is a node of the whole graph.
func (s *Sim) inGraph(v graph.NodeID) bool { return v >= 0 && int(v) < s.g.N() }
