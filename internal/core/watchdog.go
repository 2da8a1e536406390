package core

import (
	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
)

// Pulse watchdog: post-run stall observability for synchronized
// executions. Under a fault schedule a run can quiesce without
// completing — a message whose retransmit budget is exhausted
// (Undeliverable) silently starves every pulse that transitively waited
// on it — and the engine's counters alone cannot distinguish that from
// a short completed run. The watchdog inspects each node's synchronizer
// core after the run and reports how far its pulse frontier got.

// StallReport summarizes per-node pulse progress after a synchronized
// run.
type StallReport struct {
	// Bound is the run's pulse bound B.
	Bound int
	// Nodes is the number of nodes inspected.
	Nodes int
	// MinPulse and MaxPulse are the least and greatest pulse any node
	// reached (-1 when a node created no pulse at all).
	MinPulse int
	MaxPulse int
	// StalledCount is the number of nodes strictly behind MaxPulse;
	// Stalled samples up to 8 of them, ascending.
	StalledCount int
	Stalled      []graph.NodeID
	// Undeliverable is the run's count of messages abandoned with their
	// retransmit budget exhausted.
	Undeliverable uint64
	// Outputs is the number of nodes that produced an output.
	Outputs int
}

// IsStalled reports whether the run shows fault-induced starvation: at
// least one message was undeliverable and the pulse frontier is ragged
// (some nodes run behind the furthest) or output production is
// incomplete. A heuristic observability signal, not a proof — an
// algorithm that legitimately outputs on a strict node subset can
// trigger the Outputs clause only together with lost messages.
func (r *StallReport) IsStalled() bool {
	return r.Undeliverable > 0 && (r.MinPulse < r.MaxPulse || r.Outputs < r.Nodes)
}

const stallSampleCap = 8

// watchdogReport walks the synchronizer stacks of a completed run.
func watchdogReport(sim *async.Sim, res *async.Result, bound int) StallReport {
	g := sim.Graph()
	rep := StallReport{Bound: bound, MinPulse: -1, MaxPulse: -1, Undeliverable: res.Undeliverable, Outputs: len(res.Outputs)}
	pulses := make([]int, 0, g.N())
	ids := make([]graph.NodeID, 0, g.N())
	for v := 0; v < g.N(); v++ {
		id := graph.NodeID(v)
		mux, ok := sim.Handler(id).(*async.Mux)
		if !ok {
			continue
		}
		nc, ok := mux.Module(ProtoAlgo).(*nodeCore)
		if !ok {
			continue
		}
		p := -1
		if k := len(nc.vnodes); k > 0 {
			p = int(nc.vnodes[k-1].pulse) // sorted by pulse
		}
		pulses = append(pulses, p)
		ids = append(ids, id)
	}
	rep.Nodes = len(pulses)
	for i, p := range pulses {
		if i == 0 || p < rep.MinPulse {
			rep.MinPulse = p
		}
		if i == 0 || p > rep.MaxPulse {
			rep.MaxPulse = p
		}
	}
	for i, p := range pulses {
		if p < rep.MaxPulse {
			rep.StalledCount++
			if len(rep.Stalled) < stallSampleCap {
				rep.Stalled = append(rep.Stalled, ids[i])
			}
		}
	}
	return rep
}

// SynchronizeWatched is Synchronize plus the pulse watchdog: it runs the
// synchronized execution and inspects every node's pulse frontier after
// quiescence.
func SynchronizeWatched(cfg Config, mk func(id graph.NodeID) syncrun.Handler) (async.Result, StallReport) {
	sim := newSynchronizedSim(cfg, mk)
	res := sim.Run()
	return res, watchdogReport(sim, &res, cfg.Bound)
}
