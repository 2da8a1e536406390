package async

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/wire"
)

// This file is the speculative executor (ModeSpec). The bounded-lag
// executor (sim.go) parallelizes only the adversary's safe window
// [wStart, wStart+MinDelay): with a tiny-lookahead adversary the window
// holds one event and the barrier is pure overhead. The speculative
// executor drains each owner shard past the window up to an adaptive
// horizon, betting that most events' relative order is already decided
// even though it is not yet provable. Rounds run on the bounded-lag
// executor's own window driver (runWindows): only what a round does and
// what its barrier does differ.
//
// The design splits each round into a phase that is parallel but effect-
// free and a walk that is effectful but serial:
//
//   - Speculative phase (parallel): each worker pops its shard in (t, seq)
//     order and invokes ONLY the handler callback, on a per-node clone
//     copied from the committed handler at first touch through its
//     wire.StateCodec (SaveState, then LoadState into the clone, via the
//     worker's retained stateCopy). The callback's Send/Output calls are
//     logged as specOps; nothing in the engine — outboxes, txSeq,
//     counters, trace, arena lifecycle, seq assignment — is touched. The
//     one piece of engine state a handler can observe, its own HasOutput,
//     is served from a per-round overlay.
//
//   - Commit walk (serial): merge the workers' logs by (t, seq) through
//     MergeRuns, the same k-way merge every barrier uses, and step each
//     event through the direct context — the serial engine's own step, clock
//     guard and event cap included — on the committed state, with the
//     handler invocation replaced by a replay of its logged ops. Trace
//     entries, ack scheduling, adversary consultation, outbox dispatch,
//     sequence numbers, and counters are therefore produced by the
//     ModeSingle code path itself — byte-identical results by construction,
//     not by careful imitation.
//
//     Stragglers are detected on the fly: the walk tracks the minimum
//     timestamp it has scheduled (specNewMin); the first merged event with
//     t strictly greater than that minimum proves the remaining suffix was
//     executed out of order (a not-yet-executed event precedes it), so the
//     merge stops early and the round commits the maximal clean prefix,
//     leaving each worker's merge cursor at its committed count. Equality
//     is safe — a new event carries a larger seq than every logged one.
//     Every event inside the safe window always commits (nothing can be
//     scheduled before wStart+MinDelay), so a round commits at least as
//     much as a bounded-lag window would and termination is inherited.
//
//   - Rollback: rejected events are pushed back into their shard wheel
//     untouched — their (t, seq) identity survives, and push clamps
//     already-passed ticks into the current slot, which popBefore orders
//     correctly — and the segments their speculative sends carved are
//     batch-released. Handler state is repaired per node: a node whose
//     executed events all committed has its clone promoted (a pointer swap
//     — the displaced handler becomes the next round's clone target, so
//     steady-state speculation allocates nothing); a node with only
//     rejected events keeps its committed handler and the clone is simply
//     invalidated; a straddled node (some committed, some rejected) keeps
//     the committed handler and re-runs just its committed transitions on
//     it with effects swallowed, since the walk already applied them.
//
// A handler panic during speculation is not propagated immediately — the
// event may be a mis-speculation that serial execution never reaches in
// that state. The worker closes its log with the panicking event and its
// partial ops, and stops. If the walk reaches that entry cleanly, the panic
// is real: stepping it runs the event's pre-handler mechanics and partial
// ops, then re-panics, leaving exactly the committed state the serial
// engine would have at that point (Stats afterwards is serial-exact). If it
// is cut off, the event is rolled back and retried like any other.
//
// Costs, honestly: the walk re-executes every committed event's engine
// mechanics serially, so for trivial handlers the parallel phase offloads
// only the handler body and Amdahl caps the speedup (DESIGN.md carries the
// model). Rolled-back work is bounded by the adaptive horizon, which
// doubles after fully-committed rounds and shrinks to twice the observed
// commit span after a cut. Known leaks, bounded by Reset: a discarded
// clone's unsent segments, and output bodies carrying segments in rejected
// events.

// specOpKind discriminates logged handler effects.
type specOpKind uint8

const (
	opSend specOpKind = iota + 1
	opOutBody
)

// specOp is one logged handler effect: a Send (to, msg) or an Output
// (to = the node itself, payload in msg.Body).
type specOp struct {
	kind specOpKind
	to   graph.NodeID
	msg  Msg
}

// specExec records one speculatively executed event and the end of its op
// range in the worker's flat specOps log (the range starts at the previous
// entry's opEnd).
type specExec struct {
	ev    event
	opEnd int32
}

// specMaxSpan caps the adaptive horizon at one normalized time unit — all
// delays lie in (0,1], so no queued event is further out than that.
const specMaxSpan = 1.0

// runSpec executes the simulation to quiescence speculatively, through the
// bounded-lag executor's window driver: a round drains each shard up to the
// horizon on cloned handlers, the barrier walks, repairs and adapts the
// horizon.
func (s *Sim) runSpec() {
	s.ensureSpecState()
	span := s.specFixedSpan
	if span == 0 {
		span = s.lookahead // adaptive: start at the provably-safe window
	}
	span = min(max(span, s.lookahead), specMaxSpan)
	s.specRoundEp++
	s.runWindows(func(k int, wStart float64) { s.specWorker(k, wStart+span) },
		func(wStart float64) int {
			s.specStats.Rounds++
			cut, cutT := s.specCommitWalk()
			committed := s.specFinishRound()
			s.specRoundEp++
			if s.specFixedSpan == 0 {
				if cut {
					// Aim at twice the span that actually committed: ~2/3 of
					// the next round's speculation should commit if event
					// density holds, bounding wasted work without collapsing
					// to the safe window.
					span = 2 * (cutT - wStart)
				} else {
					span *= 2
				}
				span = min(max(span, s.lookahead), specMaxSpan)
			}
			return committed
		})
}

// ensureSpecState sizes the per-node speculation arrays (once per Sim; the
// graph cannot change) and rearms the swallow context. Epoch arrays are
// invalidated by the ever-increasing round epoch, never scrubbed.
func (s *Sim) ensureSpecState() {
	n := s.g.N()
	if len(s.specClones) != n {
		s.specClones = make([]Handler, n)
		s.specCloneEp = make([]uint64, n)
		s.specSwapEp = make([]uint64, n)
		s.specRejEp = make([]uint64, n)
		s.specOutEp = make([]uint64, n)
		s.specOutView = make([]bool, n)
		s.specOutSaved = make([]bool, n)
	}
	s.swallowCtx = execCtx{s: s, swallow: true}
}

// specWorker drains shard k up to the horizon, running handler clones and
// logging their effects. A panic — usually from the handler, possibly a
// mis-speculation — is captured, not propagated: the panicking event closes
// the log with its partial ops, and the commit walk decides whether serial
// execution actually reaches it.
func (s *Sim) specWorker(k int, hEnd float64) {
	c := &s.wctx[k]
	c.spec = true
	defer func() {
		c.spec = false
		if p := recover(); p != nil {
			c.specLog = append(c.specLog, specExec{ev: c.specCur, opEnd: int32(len(c.specOps))})
			c.specPanic = p
		}
	}()
	q := &s.shards[k]
	for {
		key, ev := q.popBefore(hEnd)
		if ev == nil {
			return
		}
		c.specCur = event{t: key.t, seq: key.seq, evCell: *ev}
		v := ev.owner()
		// evRetrans runs no handler — it is pure engine mechanics (a new
		// transmission attempt), which only the commit walk may perform. It
		// still logs an empty-op entry so the walk merges it in order; the
		// clone is untouched, so pass 1/2 of specFinishRound skip it.
		switch ev.kind {
		case evDeliver:
			s.specHandlerFor(c, v).Recv(&s.nodes[v], ev.src, ev.msg())
		case evAckArrive:
			s.specHandlerFor(c, v).Ack(&s.nodes[v], ev.dst, ev.msg())
		}
		c.specLog = append(c.specLog, specExec{ev: c.specCur, opEnd: int32(len(c.specOps))})
	}
}

// opStart is where logged event i's ops begin in the flat specOps log.
func (c *execCtx) opStart(i int) int32 {
	if i == 0 {
		return 0
	}
	return c.specLog[i-1].opEnd
}

// specHandlerFor returns node v's per-round clone, refreshing it from the
// committed handler on first touch through worker context c's stateCopy.
// Clone targets are built lazily with the stored mk and ping-ponged with
// the committed instance on promotion, so a node pays one construction
// ever, then only codec copies.
func (s *Sim) specHandlerFor(c *execCtx, v graph.NodeID) Handler {
	if s.specCloneEp[v] != s.specRoundEp {
		cl := s.specClones[v]
		if cl == nil {
			cl = s.build(s.specMk, v)
			s.specClones[v] = cl
		}
		c.clone.copy(s.handlers[v].(wire.StateCodec), cl.(wire.StateCodec))
		s.specCloneEp[v] = s.specRoundEp
	}
	return s.specClones[v]
}

// stateCopy is a retained encoder and decoder pair that copies handler
// state through its wire.StateCodec. Neither has an arena, so a Body in
// the state travels as its raw image: the copy shares the original's
// segment handles exactly, never carving new segments. With the state
// codecs' flat layouts, a warmed stateCopy copies without allocating.
type stateCopy struct {
	e wire.Enc
	d wire.Dec
}

// copy replaces dst's state with src's. Both must have been built by the
// same constructor for the same node; a stream dst does not read back
// exactly is a codec bug, and panics.
func (c *stateCopy) copy(src, dst wire.StateCodec) {
	c.e.Reset()
	src.SaveState(&c.e)
	c.d.Reset(c.e.Bytes(), nil)
	dst.LoadState(&c.d)
	if err := c.d.Err(); err != nil || c.d.Remaining() != 0 {
		panic(fmt.Sprintf("async: copying %T through its state codec: %v (%d bytes unread)", src, err, c.d.Remaining()))
	}
}

// specTouchOut tracks a speculative Output call in the per-round overlay,
// saving the committed value on the round's first touch (the straddle
// repair replays from it).
func (s *Sim) specTouchOut(id graph.NodeID) {
	if s.specOutEp[id] != s.specRoundEp {
		s.specOutEp[id] = s.specRoundEp
		s.specOutSaved[id] = s.out.Has(int(id))
	}
	s.specOutView[id] = true
}

// specCommitWalk merges the workers' logs in global (t, seq) order and
// commits the maximal prefix that serial execution certifies, stepping each
// event through the direct context with its handler callback replaced by
// the logged ops. It reports whether the round was cut and, if so, the
// straggler frontier; s.mergeCur is left at each worker's committed count.
func (s *Sim) specCommitWalk() (cut bool, cutT float64) {
	c := &s.direct
	s.specNewMin = math.Inf(1)
	s.specWalking = true
	c.replayOn = true
	defer func() {
		s.specWalking = false
		c.replayOn, c.replay, c.replayPanic = false, nil, nil
	}()
	MergeRuns(s.mergeCur, len(s.wctx),
		func(k int) []specExec { return s.wctx[k].specLog },
		func(a, b *specExec) bool { return evLess(a.ev, b.ev) },
		func(k int, e *specExec) bool {
			if e.ev.t > s.specNewMin {
				// e is the minimum of everything left, so the entire
				// remaining suffix is past the straggler frontier.
				cut, cutT = true, s.specNewMin
				return false
			}
			w := &s.wctx[k]
			i := s.mergeCur[k]
			c.replay = w.specOps[w.opStart(i):e.opEnd]
			if i == len(w.specLog)-1 {
				// A panicking event is always its log's last; reached
				// cleanly, the panic is real.
				c.replayPanic = w.specPanic
			}
			c.step(evKey{t: e.ev.t, seq: e.ev.seq}, &e.ev.evCell)
			return true
		})
	return cut, cutT
}

// specFinishRound repairs handler state and rolls back the rejected
// suffix after a commit walk, and returns how many events committed.
func (s *Sim) specFinishRound() (committed int) {
	w := len(s.wctx)
	round := s.specRoundEp
	// Pass 1: mark every node owning a rejected event — its clone ran past
	// the cut and is poisoned. evRetrans events never touch a clone, so a
	// rejected one poisons nothing (it simply requeues in pass 3).
	for k := 0; k < w; k++ {
		c := &s.wctx[k]
		for i := s.mergeCur[k]; i < len(c.specLog); i++ {
			if c.specLog[i].ev.kind == evRetrans {
				continue
			}
			s.specRejEp[c.specLog[i].ev.owner()] = round
		}
	}
	// Pass 2: promote clean clones (pointer swap; the displaced handler is
	// next round's clone target) and swallow-replay straddled nodes'
	// committed transitions on their committed handler — the walk already
	// applied those transitions' effects, only the state change is needed.
	for k := 0; k < w; k++ {
		c := &s.wctx[k]
		for i := 0; i < s.mergeCur[k]; i++ {
			e := &c.specLog[i]
			if e.ev.kind == evRetrans {
				// No handler ran and the clone was never refreshed for this
				// event; promoting on its account would swap in a stale (or
				// nil) clone.
				continue
			}
			v := e.ev.owner()
			if s.specRejEp[v] == round {
				s.specSwallowReplay(v, e)
				s.specStats.Replayed++
			} else if s.specSwapEp[v] != round {
				s.handlers[v], s.specClones[v] = s.specClones[v], s.handlers[v]
				s.specSwapEp[v] = round
			}
		}
	}
	// Pass 3: requeue rejected events untouched — seq identity survives,
	// a later round commits them — and batch-release the segments their
	// speculative sends carved (those sends were never applied, so nothing
	// references the segments).
	for k := 0; k < w; k++ {
		c := &s.wctx[k]
		n := s.mergeCur[k]
		for i := c.opStart(n); i < int32(len(c.specOps)); i++ {
			if c.specOps[i].kind == opSend && !c.specOps[i].msg.Body.Seg.IsZero() {
				s.specRelease = append(s.specRelease, c.specOps[i].msg.Body.Seg)
			}
		}
		for i := n; i < len(c.specLog); i++ {
			s.shards[k].push(&c.specLog[i].ev)
		}
		committed += n
		s.specStats.Executed += uint64(len(c.specLog))
		s.specStats.Committed += uint64(n)
		s.specStats.Rejected += uint64(len(c.specLog) - n)
		c.specPanic = nil
		c.specOps = c.specOps[:0]
		c.specLog = c.specLog[:0]
	}
	s.arena.ReleaseAll(s.specRelease)
	s.specRelease = s.specRelease[:0]
	return committed
}

// specSwallowReplay re-runs one committed transition on node v's committed
// handler through the swallow context: state evolves, effects are dropped
// (duplicate sends release their fresh segment immediately; Output updates
// only repair's local HasOutput view).
func (s *Sim) specSwallowReplay(v graph.NodeID, e *specExec) {
	n := &s.nodes[v]
	old := n.ctxIdx
	n.ctxIdx = ctxSwallow
	h := s.handlers[v]
	switch e.ev.kind {
	case evDeliver:
		h.Recv(n, e.ev.src, e.ev.msg())
	case evAckArrive:
		h.Ack(n, e.ev.dst, e.ev.msg())
	}
	n.ctxIdx = old
}
