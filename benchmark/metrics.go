package main

import (
	"math"
	"sort"
)

// metric is one named number. bound is set on end-to-end metrics only: the
// share of the parent's median by which a later change may worsen the metric
// before it counts as a regression. moves is set on per-layer metrics only:
// the end-to-end metric and workloads the layer metric is expected to move
// (everywhere else the prediction is "no move").
type metric struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd must equal BENCHMARK.json's end_to_end (a test holds them
// together). Every workload reports all of them.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "retained_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "sim_msgs", unit: "count", better: "lower", bound: 0.03},
}

// perLayer must equal BENCHMARK.json's per_layer. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metric{
	{name: "sim.time", unit: "units", better: "lower", moves: "the paper's T(A'); equal on every op and mode of one seed, all workloads"},
	{name: "sim.msgs", unit: "count", better: "lower", moves: "sim_msgs, all workloads"},
	{name: "graph.build_s", unit: "s", better: "lower", moves: "setup_s, all workloads; dominant on lockstep-bfs"},
	{name: "graph.bytes_per_link", unit: "B", better: "lower", moves: "retained_mb, all workloads"},
	{name: "cover.build_s", unit: "s", better: "lower", moves: "setup_s on sync-bfs, checkpoint"},
	{name: "syncrun.ref_run_s", unit: "s", better: "lower", moves: "setup_s on sync-bfs, checkpoint"},
	{name: "syncrun.first_run_s", unit: "s", better: "lower", moves: "cold op on lockstep-bfs"},
	{name: "syncrun.self_s", unit: "s", better: "lower", moves: "run_s on lockstep-bfs"},
	{name: "syncrun.ns_per_msg", unit: "ns", better: "lower", moves: "work_per_s on lockstep-bfs"},
	{name: "syncrun.pulses", unit: "count", better: "lower", moves: "lockstep-bfs"},
	{name: "syncrun.single.run_s", unit: "s", better: "lower", moves: "run_s on lockstep-bfs when Auto resolves to Single"},
	{name: "syncrun.multi.run_s", unit: "s", better: "lower", moves: "run_s on lockstep-bfs when Auto resolves to Multi"},
	{name: "apps.handler_s", unit: "s", better: "lower", moves: "run_s, small share everywhere"},
	{name: "apps.handler_calls", unit: "count", better: "lower", moves: "run_s, all but shard-flood"},
	{name: "apps.waste_ratio", unit: "ratio", better: "lower", moves: "run_s on sync-bfs (speculative work thrown away)"},
	{name: "core.stack_s", unit: "s", better: "lower", moves: "run_s on sync-bfs, checkpoint"},
	{name: "core.stack_calls", unit: "count", better: "lower", moves: "run_s on sync-bfs, checkpoint"},
	{name: "async.new_s", unit: "s", better: "lower", moves: "setup_s on the floods; run_s on sync-bfs, checkpoint"},
	{name: "async.first_run_s", unit: "s", better: "lower", moves: "cold op, all but lockstep-bfs"},
	{name: "async.self_s", unit: "s", better: "lower", moves: "run_s on flood-fixed, flood-random; minority on sync-bfs, checkpoint"},
	{name: "async.ns_per_event", unit: "ns", better: "lower", moves: "work_per_s on flood-fixed, flood-random"},
	{name: "async.events", unit: "count", better: "lower", moves: "work_per_s, all but lockstep-bfs"},
	{name: "async.adversary_s", unit: "s", better: "lower", moves: "run_s on flood-random, sync-bfs"},
	{name: "async.adversary_calls", unit: "count", better: "lower", moves: "run_s, all but lockstep-bfs, shard-flood"},
	{name: "async.single.run_s", unit: "s", better: "lower", moves: "run_s where Auto resolves to Single (flood-random); base of shard.vs_inproc"},
	{name: "async.multi.run_s", unit: "s", better: "lower", moves: "run_s where Auto resolves to Multi (flood-fixed)"},
	{name: "async.spec.run_s", unit: "s", better: "lower", moves: "run_s where Auto resolves to Spec (sync-bfs)"},
	{name: "async.spec.rounds", unit: "count", better: "lower", moves: "run_s on sync-bfs"},
	{name: "async.spec.commit_ratio", unit: "ratio", better: "higher", moves: "run_s on sync-bfs"},
	{name: "async.spec.replayed", unit: "count", better: "lower", moves: "run_s on sync-bfs"},
	{name: "async.steps_s", unit: "s", better: "lower", moves: "run_s on checkpoint"},
	{name: "async.snapshot_s", unit: "s", better: "lower", moves: "run_s on checkpoint"},
	{name: "async.restore_s", unit: "s", better: "lower", moves: "run_s on checkpoint"},
	{name: "wire.frame_bytes", unit: "B", better: "lower", moves: "run_s on checkpoint"},
	{name: "wire.snapshot_mb_per_s", unit: "MB/s", better: "higher", moves: "run_s on checkpoint"},
	{name: "wire.open_s", unit: "s", better: "lower", moves: "run_s on checkpoint (part of restore)"},
	{name: "shard.startup_s", unit: "s", better: "lower", moves: "setup_s on shard-flood"},
	{name: "shard.worker_s", unit: "s", better: "lower", moves: "run_s on shard-flood; tracks flood-fixed"},
	{name: "shard.comm_s", unit: "s", better: "lower", moves: "run_s on shard-flood"},
	{name: "shard.merge_s", unit: "s", better: "lower", moves: "run_s on shard-flood"},
	{name: "shard.windows", unit: "count", better: "lower", moves: "run_s on shard-flood"},
	{name: "shard.frames", unit: "count", better: "lower", moves: "run_s on shard-flood"},
	{name: "shard.frame_bytes", unit: "B", better: "lower", moves: "run_s on shard-flood"},
	{name: "shard.worker_heap_mb", unit: "MB", better: "lower", moves: "retained_mb on shard-flood"},
	{name: "shard.vs_inproc", unit: "ratio", better: "lower", moves: "run_s on shard-flood over async.single.run_s of the same inputs"},
	{name: "execpolicy.async_choice", unit: "mode", better: "lower", moves: "0 serial, 1 windows (Multi), 2 spec: names the async mode row that equals run_s"},
	{name: "execpolicy.lockstep_multi", unit: "mode", better: "lower", moves: "0 Single, 1 Multi: names the syncrun mode row that equals run_s on lockstep-bfs"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "traced default-mode op over the untraced one, all workloads"},
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between the sorted samples, the inclusive
// method: q=0 is the minimum, q=1 the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quietest returns the smallest of the per-slice medians. Host noise on a
// shared machine only adds time and arrives in bursts longer than an op, so
// the quietest slice of a run repeats far better than the run's median.
func quietest(slices [][]float64) float64 {
	best := 0.0
	for _, s := range slices {
		if m := median(s); len(s) > 0 && (best == 0 || m < best) {
			best = m
		}
	}
	return best
}
