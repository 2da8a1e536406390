package async

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
)

// This file is the speculative executor (ModeSpec). The bounded-lag
// executor (sim.go) parallelizes only the adversary's safe window
// [wStart, wStart+MinDelay): with a tiny-lookahead adversary the window
// holds one event and the barrier is pure overhead. The speculative
// executor drains each owner shard past the window up to an adaptive
// horizon, betting that most events' relative order is already decided
// even though it is not yet provable.
//
// The design splits each round into a phase that is parallel but effect-
// free and a walk that is effectful but serial:
//
//   - Speculative phase (parallel): each worker pops its shard in (t, seq)
//     order and invokes ONLY the handler callback, on a per-node clone
//     (StateCloner) built from the committed handler at first touch. The
//     callback's Send/Output calls are logged as specOps; nothing in the
//     engine — outboxes, txSeq, counters, trace, arena lifecycle, seq
//     assignment — is touched. The one piece of engine state a handler can
//     observe, its own HasOutput, is served from a per-round overlay.
//
//   - Commit walk (serial): k-way merge the workers' logs by (t, seq) and
//     re-run each event through the serial engine's own processEvent on
//     the committed state, with the handler invocation replaced by a
//     replay of its logged ops. Trace entries, ack scheduling, adversary
//     consultation, outbox dispatch, sequence numbers, and counters are
//     therefore produced by the ModeSingle code path itself — byte-
//     identical results by construction, not by careful imitation.
//
//     Stragglers are detected on the fly: the walk tracks the minimum
//     timestamp it has scheduled (specNewMin); the first merged event with
//     t strictly greater than that minimum proves the remaining suffix was
//     executed out of order (a not-yet-executed event precedes it), so the
//     walk stops and the round commits the maximal clean prefix. Equality
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
// that state. The worker records it and stops; the walk treats it as a
// sentinel ordered at the panicking event's (t, seq). If the walk reaches
// it cleanly, the panic is real: the walk replays the event's pre-handler
// mechanics and partial ops, then re-panics, leaving exactly the committed
// state the serial engine would have at that point (Stats afterwards is
// serial-exact). If it is cut off, the event is rolled back and retried
// like any other.
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
	opOutAny
)

// specOp is one logged handler effect: a Send (to, msg) or an Output
// (to = the node itself, payload in msg.Body or val).
type specOp struct {
	kind specOpKind
	to   graph.NodeID
	msg  Msg
	val  any
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

// runSpec executes the simulation to quiescence speculatively.
func (s *Sim) runSpec() {
	w := s.workers
	if w < 1 {
		w = 1
	}
	s.ensureWindowState(w)
	s.ensureSpecState()
	s.sharded = true
	for k := range s.wctx {
		s.wctx[k].spec = true
	}
	defer func() {
		s.sharded = false
		s.inWindow = false
		for k := range s.wctx {
			s.wctx[k].spec = false
		}
		for i := range s.nodes {
			s.nodes[i].ctxIdx = ctxDirect
		}
	}()
	// Init runs serially through the direct context (its schedules route
	// to the shards), exactly as in ModeSingle. A resumed run deals its
	// restored events to the owner shards instead.
	if s.resumed {
		s.dealRestoredEvents()
	} else {
		for i := range s.handlers {
			s.handlers[i].Init(&s.nodes[i])
		}
	}
	for i := range s.nodes {
		s.nodes[i].ctxIdx = int32(i%w) + 1
	}
	span := s.specFixedSpan
	if span == 0 {
		span = s.lookahead // adaptive: start at the provably-safe window
	}
	if span < s.lookahead {
		span = s.lookahead
	}
	if span > specMaxSpan {
		span = specMaxSpan
	}
	// Same fan-out gating as runWindows: goroutines only when the previous
	// round was populated enough to amortize them; small rounds run their
	// shards inline through the identical speculation path.
	prevRound := 0
	for {
		wStart, ok := s.minShardT()
		if !ok {
			break
		}
		if wStart < s.now {
			panic(fmt.Sprintf("async: time went backwards: %g < %g", wStart, s.now))
		}
		hEnd := wStart + span
		s.specRoundEp++
		s.specStats.Rounds++
		s.inWindow = true
		if w == 1 || prevRound < s.minParallel {
			for k := 0; k < w; k++ {
				s.specWorker(k, hEnd)
			}
		} else {
			var wg sync.WaitGroup
			for k := 0; k < w; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					s.specWorker(k, hEnd)
				}(k)
			}
			wg.Wait()
		}
		for k := range s.wctx {
			s.specStats.Executed += uint64(len(s.wctx[k].specLog))
		}
		committed, cut, cutT := s.specCommitWalk()
		s.inWindow = false
		s.specFinishRound()
		s.specStats.Committed += uint64(committed)
		prevRound = committed
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
			if span < s.lookahead {
				span = s.lookahead
			}
			if span > specMaxSpan {
				span = specMaxSpan
			}
		}
	}
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
// mis-speculation — is captured, not propagated: the commit walk decides
// whether serial execution actually reaches it.
func (s *Sim) specWorker(k int, hEnd float64) {
	c := &s.wctx[k]
	defer func() {
		if p := recover(); p != nil {
			c.specPanicked = true
			c.specPanic = p
		}
	}()
	q := &s.shards[k]
	for {
		ev := q.popBefore(hEnd)
		if ev == nil {
			return
		}
		c.specCur = *ev
		v := ownerOf(ev)
		// evRetrans runs no handler — it is pure engine mechanics (a new
		// transmission attempt), which only the commit walk may perform. It
		// still logs an empty-op entry so the walk merges it in order; the
		// clone is untouched, so pass 1/2 of specFinishRound skip it.
		switch ev.kind {
		case evDeliver:
			s.specHandlerFor(v).Recv(&s.nodes[v], ev.src, ev.msg)
		case evAckArrive:
			s.specHandlerFor(v).Ack(&s.nodes[v], ev.dst, ev.msg)
		}
		c.specLog = append(c.specLog, specExec{ev: *ev, opEnd: int32(len(c.specOps))})
	}
}

// specHandlerFor returns node v's per-round clone, refreshing it from the
// committed handler on first touch. Clone targets are built lazily with
// the stored mk and ping-ponged with the committed instance on promotion,
// so a node pays one construction ever, then only CloneStateInto copies.
func (s *Sim) specHandlerFor(v graph.NodeID) Handler {
	if s.specCloneEp[v] != s.specRoundEp {
		cl := s.specClones[v]
		if cl == nil {
			cl = s.specMk(v)
			s.specClones[v] = cl
		}
		s.handlers[v].(StateCloner).CloneStateInto(cl)
		s.specCloneEp[v] = s.specRoundEp
	}
	return s.specClones[v]
}

// specTouchOut tracks a speculative Output call in the per-round overlay,
// saving the committed value on the round's first touch (the straddle
// repair replays from it).
func (s *Sim) specTouchOut(id graph.NodeID) {
	if s.specOutEp[id] != s.specRoundEp {
		s.specOutEp[id] = s.specRoundEp
		s.specOutSaved[id] = s.hasOut[id]
	}
	s.specOutView[id] = true
}

// specCommitWalk merges the workers' logs in global (t, seq) order and
// commits the maximal prefix that serial execution certifies, applying
// each event's engine mechanics through the direct context. Returns the
// committed count and, if the round was cut, the straggler frontier.
func (s *Sim) specCommitWalk() (committed int, cut bool, cutT float64) {
	w := len(s.wctx)
	cur := s.mergeCur
	for k := 0; k < w; k++ {
		cur[k] = 0
	}
	s.specNewMin = math.Inf(1)
	s.specWalking = true
	defer func() {
		s.specWalking = false
		s.direct.replayOn = false
		s.direct.replay = nil
	}()
	for {
		best := -1
		var bestEv *event
		for k := 0; k < w; k++ {
			c := &s.wctx[k]
			var ev *event
			switch {
			case cur[k] < len(c.specLog):
				ev = &c.specLog[cur[k]].ev
			case cur[k] == len(c.specLog) && c.specPanicked:
				// The panicking event: popped but never logged. It merges
				// like any other entry; its ops are the log's open tail.
				ev = &c.specCur
			default:
				continue
			}
			if best < 0 || evLess(*ev, *bestEv) {
				best, bestEv = k, ev
			}
		}
		if best < 0 {
			return committed, false, 0
		}
		if bestEv.t > s.specNewMin {
			// bestEv is the minimum of everything left, so the entire
			// remaining suffix is past the straggler frontier.
			return committed, true, s.specNewMin
		}
		c := &s.wctx[best]
		i := cur[best]
		var opStart int32
		if i > 0 {
			opStart = c.specLog[i-1].opEnd
		}
		ev := *bestEv
		s.now = ev.t
		s.steps++
		if s.steps > s.maxEvents {
			panic(fmt.Sprintf("async: exceeded %d events at t=%g (livelock?)", s.maxEvents, s.now))
		}
		if i == len(c.specLog) {
			// Certified panic: reproduce the serial engine's exact state at
			// the point of death, then die the same way.
			s.direct.replay = c.specOps[opStart:]
			s.direct.replayOn = true
			s.specReplayPanic(&ev, c.specPanic)
		}
		s.direct.replay = c.specOps[opStart:c.specLog[i].opEnd]
		s.direct.replayOn = true
		s.direct.processEvent(&ev)
		cur[best]++
		committed++
	}
}

// specReplayPanic applies the mechanics the serial engine performs before
// a handler callback that panics — the delivery trace entry, or the ack's
// link release and redispatch — plus the callback's partial effects, then
// re-raises the original panic value.
func (s *Sim) specReplayPanic(ev *event, p any) {
	c := &s.direct
	c.now = ev.t
	c.curSeq = ev.seq
	switch ev.kind {
	case evDeliver:
		if s.keepTrace {
			s.trace = append(s.trace, TraceEntry{T: ev.t, Seq: ev.seq, From: ev.src, To: ev.dst, Msg: ev.msg})
		}
	case evAckArrive:
		s.busy[ev.link] = false
		c.dispatch(ev.src, ev.dst, ev.link)
	}
	c.applyOps(ev)
	panic(p)
}

// specFinishRound repairs handler state and rolls back the rejected
// suffix after a commit walk.
func (s *Sim) specFinishRound() {
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
			s.specRejEp[ownerOf(&c.specLog[i].ev)] = round
		}
		if c.specPanicked {
			s.specRejEp[ownerOf(&c.specCur)] = round
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
			v := ownerOf(&e.ev)
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
		var opStart int32
		if n := s.mergeCur[k]; n > 0 {
			opStart = c.specLog[n-1].opEnd
		}
		for i := opStart; i < int32(len(c.specOps)); i++ {
			if c.specOps[i].kind == opSend && !c.specOps[i].msg.Body.Seg.IsZero() {
				s.specRelease = append(s.specRelease, c.specOps[i].msg.Body.Seg)
			}
		}
		for i := s.mergeCur[k]; i < len(c.specLog); i++ {
			s.specStats.Rejected++
			s.shards[k].push(&c.specLog[i].ev)
		}
		if c.specPanicked {
			s.specStats.Rejected++
			s.shards[k].push(&c.specCur)
			c.specPanicked, c.specPanic = false, nil
		}
		clearSpecOps(c.specOps)
		c.specOps = c.specOps[:0]
		c.specLog = c.specLog[:0]
	}
	s.arena.ReleaseAll(s.specRelease)
	s.specRelease = s.specRelease[:0]
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
		h.Recv(n, e.ev.src, e.ev.msg)
	case evAckArrive:
		h.Ack(n, e.ev.dst, e.ev.msg)
	}
	n.ctxIdx = old
}

// clearSpecOps drops boxed output values so a truncated log's retained
// capacity pins nothing.
func clearSpecOps(ops []specOp) {
	for i := range ops {
		if ops[i].kind == opOutAny {
			ops[i].val = nil
		}
	}
}
