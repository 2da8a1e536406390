// Command shardsim runs one workload across K node-partitioned engine
// processes — the multi-process sharded executor — and reports the merged
// result plus the coordinator's per-window time ledger.
//
// Usage:
//
//	shardsim -graph grid3d:100x100x100 -shards 2 -workload flood
//	shardsim -graph pa:n=200000,m=3,seed=7 -shards 4 -workload bfs -adv random:9
//	shardsim -graph grid3d:32x32x32 -shards 2 -verify     # compare vs serial
//	shardsim -graph grid3d:100x100x100 -shards 2 -ceiling-mb 1024
//	shardsim -graph grid3d:32x32x32 -shards 2 -faults drop:p=0.05,budget=3,seed=7 -verify
//	shardsim -graph grid:200x200 -shards 2 -snapshot-every 50000 -snapshot-path run.ckpt
//	shardsim -resume run.ckpt -shards 4    # continue at a different K
//
// Workers are re-execs of this binary: the coordinator spawns K copies
// with REPRO_SHARD_SOCKET/REPRO_SHARD_INDEX set (plus a cosmetic
// -shard-worker argv so ps identifies them), each builds the graph from
// the same spec string, carves its contiguous node range, and serves the
// bounded-lag window protocol over a unix socket. Results — outputs,
// message counts, per-protocol totals, delivery traces — are byte-
// identical to the single-process serial engine; -verify re-runs the
// workload serially and enforces exactly that. -ceiling-mb fails the run
// if any worker's settled heap exceeds the bound, which is how CI holds
// the per-process memory promise. -inproc serves workers on goroutines
// over the same sockets (no processes; heap self-reports are disabled
// because the workers share one heap).
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"

	dsync "repro"
	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/shard"
)

func main() {
	shard.MaybeWorker() // worker re-execs never return from this
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("shardsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		spec     = fl.String("graph", "grid3d:32x32x32", "graph spec (graph.FromSpec form, e.g. grid3d:100x100x100)")
		shards   = fl.Int("shards", 0, "worker count K; 0 picks execpolicy.AutoShards for the graph")
		workload = fl.String("workload", "flood", "workload: "+strings.Join(shard.Workloads(), "|"))
		adv      = fl.String("adv", "fixed:1", "delay adversary: fixed:<d>|random:<seed>|skew:cut=<n>,fast=<d>|flaky:<seed>|edge:<seed>")
		faults   = fl.String("faults", "", "fault schedule (e.g. crash:p=0.01,drop:p=0.05,budget=3,seed=7); empty = fault-free")
		sources  = fl.String("sources", "0", "comma-separated source node ids")
		segWords = fl.Int("seg-words", 0, "segment words per message (segflood; 0 = workload default)")
		inproc   = fl.Bool("inproc", false, "serve workers on goroutines instead of spawned processes")
		ceiling  = fl.Int64("ceiling-mb", 0, "fail if any worker's settled heap exceeds this many MB (process workers; 0 = off)")
		verify   = fl.Bool("verify", false, "also run the serial single-process engine and require byte-identical results")
		snapN    = fl.Uint64("snapshot-every", 0, "checkpoint the run every N executed events (requires -snapshot-path)")
		snapP    = fl.String("snapshot-path", "", "checkpoint file (atomically replaced at each checkpoint)")
		resume   = fl.String("resume", "", "resume from a checkpoint file; graph/workload/adversary/faults come from the file, -shards stays yours")
		_        = fl.Bool("shard-worker", false, "(internal) cosmetic marker on re-exec'd worker argv; workers are configured via environment")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}

	// The id-space bound only: shard.Run checks sources against the graph.
	srcs, err := dsync.ParseSources(*sources, math.MaxInt32)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *resume != "" && *verify {
		fmt.Fprintln(stderr, "-verify needs the full workload spec, which a -resume run takes from the checkpoint file; run -verify on the uninterrupted configuration instead")
		return 2
	}
	cfg := shard.Config{
		GraphSpec: *spec,
		Shards:    *shards,
		Workload:  *workload,
		Adversary: *adv,
		Faults:    *faults,
		Sources:   srcs,
		SegWords:  *segWords,
		// Traces are only needed for -verify, and segment-carrying traces
		// hold arena-local handles that never compare equal across
		// processes — the documented caveat — so they stay off for segflood.
		KeepTrace:     *verify && *workload != "segflood",
		CeilingMB:     *ceiling,
		Launch:        shard.LaunchProcess,
		WorkerArgs:    []string{"-shard-worker"},
		SnapshotEvery: *snapN,
		SnapshotPath:  *snapP,
		ResumeFrom:    *resume,
	}
	if *inproc {
		cfg.Launch = shard.LaunchInProc
	}
	rep, err := shard.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	res := rep.Result
	st := rep.Stats
	if *resume != "" {
		fmt.Fprintf(stdout, "resumed=%s shards=%d cuts=%v crossLinks=%d\n",
			*resume, st.Shards, rep.Cuts, st.CrossLinks)
	} else {
		fmt.Fprintf(stdout, "graph=%s workload=%s adv=%s shards=%d cuts=%v crossLinks=%d\n",
			*spec, *workload, *adv, st.Shards, rep.Cuts, st.CrossLinks)
	}
	if *faults != "" {
		fmt.Fprintf(stdout, "faults=%s dropped=%d retrans=%d undeliverable=%d\n",
			*faults, res.Dropped, res.Retrans, res.Undeliverable)
	}
	fmt.Fprintf(stdout, "time=%.3f quiesce=%.3f msgs=%d acks=%d events=%d outputs=%d\n",
		res.Time, res.QuiesceTime, res.Msgs, res.Acks, st.TotalEvents, outval.Count(res.OutSet))
	for _, p := range slices.Sorted(maps.Keys(res.PerProto)) {
		fmt.Fprintf(stdout, "  proto %d: %d msgs\n", p, res.PerProto[p])
	}
	fmt.Fprintf(stdout, "windows=%d frames=%d frameKB=%d\n", st.Windows, st.Frames, st.FrameBytes>>10)
	if st.Snapshots > 0 {
		fmt.Fprintf(stdout, "snapshots=%d snapshotMs=%.1f path=%s\n", st.Snapshots, ms(st.SnapshotNs), *snapP)
	}
	fmt.Fprintf(stdout, "startup=%.1fms worker=%.1fms comm=%.1fms merge=%.1fms", ms(st.StartupNs), ms(st.WorkerNs), ms(st.CommNs), ms(st.MergeNs))
	if st.Windows > 0 {
		fmt.Fprintf(stdout, "  (per window: worker=%.1fµs comm=%.1fµs merge=%.1fµs)",
			us(st.WorkerNs)/float64(st.Windows), us(st.CommNs)/float64(st.Windows), us(st.MergeNs)/float64(st.Windows))
	}
	fmt.Fprintln(stdout)
	for i, si := range rep.Shards {
		fmt.Fprintf(stdout, "shard %d: nodes=%d links=%d boundary=%d steps=%d graphMB=%.1f", i,
			si.Nodes, si.Links, si.Boundary, si.Steps, float64(si.GraphBytes)/(1<<20))
		if si.HeapMB > 0 {
			fmt.Fprintf(stdout, " engineMB=%.1f heapMB=%d", float64(si.EngineBytes)/(1<<20), si.HeapMB)
		}
		fmt.Fprintln(stdout)
	}

	if *verify {
		want, err := serialReference(cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !reflect.DeepEqual(res, want) {
			fmt.Fprintf(stderr, "VERIFY FAILED: sharded result diverges from the serial engine\n"+
				"  sharded: time=%v msgs=%d acks=%d outputs=%d\n"+
				"  serial:  time=%v msgs=%d acks=%d outputs=%d\n",
				res.Time, res.Msgs, res.Acks, outval.Count(res.OutSet),
				want.Time, want.Msgs, want.Acks, outval.Count(want.OutSet))
			return 1
		}
		fmt.Fprintln(stdout, "verify: OK — byte-identical to the serial single-process engine")
	}
	return 0
}

// serialReference runs the same (graph, adversary, workload) through the
// serial engine, with outputs in the dense form shard.Run reports.
func serialReference(cfg shard.Config) (async.Result, error) {
	g, err := graph.FromSpec(cfg.GraphSpec)
	if err != nil {
		return async.Result{}, err
	}
	a, err := shard.ParseAdversary(cfg.Adversary)
	if err != nil {
		return async.Result{}, err
	}
	fs, err := async.ParseFaultSpec(cfg.Faults)
	if err != nil {
		return async.Result{}, err
	}
	a = async.WithFaults(a, fs)
	mk, err := shard.NewWorkload(cfg.Workload, shard.WorkloadConfig{Sources: cfg.Sources, SegWords: cfg.SegWords})
	if err != nil {
		return async.Result{}, err
	}
	sim := async.New(g, a, mk).WithMode(async.ModeSingle).DenseOutputs()
	if cfg.KeepTrace {
		sim.KeepTrace()
	}
	return sim.Run(), nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
