// Command synchronize runs a chosen synchronous algorithm under a chosen
// synchronizer — or the complete asynchronous BFS of §4 — and prints the
// measured overheads against the lockstep run.
//
// Usage:
//
//	synchronize -algo bfs    -sync main  -graph grid:6x6
//	synchronize -algo leader -sync alpha -graph cycle:32
//	synchronize -algo mst    -sync main  -graph er:n=40,m=120,seed=1
//	synchronize -algo abfs   -graph grid:6x8 -sources 0,47 -seed 3
//	synchronize -algo bfs    -faults drop:p=0.05,budget=3,seed=7
//
// -graph takes a graph.FromSpec string: path:n, cycle:n, grid:RxC,
// grid3d:XxYxZ, star:n, tree:n, complete:n, er:n=…,m=…,seed=…,
// pa:n=…,m=…,seed=…, ring:k=…,c=…. -algo abfs runs the complete
// asynchronous BFS (Theorems 4.23/4.24) from -sources instead of an
// algorithm under a synchronizer, so it takes no -sync; its distances are
// checked against lockstep multi-source BFS. bfs, flood and echo start at
// node 0. -mode picks the execution mode of both engines (results are
// byte-identical across modes); -faults wraps the delay adversary in an
// async.ParseFaultSpec schedule.
//
// The header's exact diameter is an O(n·m) sweep, so graphs above 1<<14
// nodes print D=- instead of stalling before the run starts. Multi-process
// relaxation BFS over the same seeded delays (distances only, with
// checkpoint/resume) is cmd/shardsim's -workload bfs -adv random:<seed>.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	dsync "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxDiameterNodes bounds the graphs whose exact diameter the header
// reports; above it the O(n·m) sweep would dwarf the run being measured.
const maxDiameterNodes = 1 << 14

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("synchronize", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		algo    = fl.String("algo", "bfs", "algorithm: bfs|flood|echo|leader|mst|abfs")
		sy      = fl.String("sync", "main", "synchronizer: main|alpha|beta|gamma (abfs: main only)")
		spec    = fl.String("graph", "grid:6x6", "topology as a graph spec, e.g. cycle:32, er:n=40,m=120,seed=1, grid3d:8x8x8")
		seed    = fl.Uint64("seed", 1, "delay adversary seed")
		mode    = fl.String("mode", "auto", "execution mode of both engines: auto|single|multi")
		sources = fl.String("sources", "0", "comma-separated source IDs for -algo abfs")
		faults  = fl.String("faults", "", "fault schedule (e.g. drop:p=0.05,budget=3,seed=7); empty = fault-free")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}
	syncMode, asyncMode, err := dsync.ParseModes(*mode)
	if err != nil {
		return fail(err)
	}
	switch {
	case *sy != "main" && *sy != "alpha" && *sy != "beta" && *sy != "gamma":
		return fail(fmt.Errorf("unknown synchronizer %q (want main|alpha|beta|gamma)", *sy))
	case *algo == "abfs" && *sy != "main":
		return fail(fmt.Errorf("-algo abfs runs without a synchronizer; drop -sync %s", *sy))
	}
	g, err := dsync.GraphFromSpec(*spec)
	if err != nil {
		return fail(err)
	}
	srcs, err := dsync.ParseSources(*sources, g.N())
	if err != nil {
		return fail(err)
	}
	fs, err := dsync.ParseFaultSpec(*faults)
	if err != nil {
		return fail(err)
	}
	adv := dsync.WithFaults(dsync.RandomDelays(*seed), fs)
	diam := "-"
	if g.N() <= maxDiameterNodes {
		diam = strconv.Itoa(g.Diameter())
	}

	if *algo == "abfs" {
		fmt.Fprintf(stdout, "algo=abfs graph=%s n=%d m=%d D=%s sources=%v\n", *spec, g.N(), g.M(), diam, srcs)
		sres := dsync.RunSyncMode(g, syncMode, dsync.NewBFS(srcs))
		res, err := dsync.AsyncBFSMode(g, srcs, adv, asyncMode)
		if err != nil {
			return fail(err)
		}
		match := !res.Stalled && len(res.Outputs) == len(sres.Outputs)
		for v, want := range sres.Outputs {
			d, ok := abfsDist(res.Outputs[v], v, srcs)
			match = match && ok && d == want.(dsync.BFSResult).Dist
		}
		fmt.Fprintf(stdout, "synchronous:  T(A)=%d rounds, M(A)=%d messages\n", sres.T, sres.M)
		fmt.Fprintf(stdout, "asynchronous: iterations=%d final-threshold=%d time=%.1f msgs=%d\n",
			res.Iterations, res.FinalThreshold, res.Time, res.Msgs)
		return report(stdout, res.Time, res.Msgs, sres, match)
	}

	mk, bound, err := buildAlgo(*algo, g)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "algo=%s sync=%s graph=%s n=%d m=%d D=%s\n", *algo, *sy, *spec, g.N(), g.M(), diam)
	sres := dsync.RunSyncMode(g, syncMode, mk)
	if bound == 0 {
		bound = sres.Rounds + 2
	}
	var ares dsync.AsyncResult
	switch *sy {
	case "main":
		ares = dsync.SynchronizeMode(g, bound, adv, asyncMode, mk)
	case "alpha":
		ares = dsync.SynchronizeAlpha(g, bound, adv, mk)
	case "beta":
		ares = dsync.SynchronizeBeta(g, bound, adv, mk)
	case "gamma":
		ares = dsync.SynchronizeGamma(g, bound, adv, mk)
	}
	match := len(ares.Outputs) == len(sres.Outputs)
	for v, want := range sres.Outputs {
		match = match && ares.Outputs[v] == want
	}
	fmt.Fprintf(stdout, "synchronous:  T(A)=%d rounds, M(A)=%d messages\n", sres.T, sres.M)
	fmt.Fprintf(stdout, "asynchronous: time=%.1f, msgs=%d (+%d acks)\n", ares.Time, ares.Msgs, ares.Acks)
	return report(stdout, ares.Time, ares.Msgs, sres, match)
}

// report prints the overhead line and turns an output mismatch into exit 1.
func report(w io.Writer, time float64, msgs uint64, sres dsync.SyncResult, match bool) int {
	fmt.Fprintf(w, "overheads:    time %.1fx, messages %.1fx, outputs-match=%v\n",
		time/float64(max(sres.T, 1)), float64(msgs)/float64(max(sres.M, 1)), match)
	if !match {
		return 1
	}
	return 0
}

// abfsDist reads one node's distance from the asynchronous BFS: reached
// nodes output a TBFSResult, sources their echo verdict instead.
func abfsDist(out any, v dsync.NodeID, srcs []dsync.NodeID) (int, bool) {
	if r, ok := out.(dsync.TBFSResult); ok {
		return r.Dist, true
	}
	for _, s := range srcs {
		if s == v {
			return 0, out != nil
		}
	}
	return 0, false
}

func buildAlgo(algo string, g *dsync.Graph) (func(dsync.NodeID) dsync.Algorithm, int, error) {
	switch algo {
	case "bfs":
		return dsync.NewBFS([]dsync.NodeID{0}), 0, nil
	case "flood":
		return dsync.NewFlood(0), 0, nil
	case "echo":
		return dsync.NewEcho(0), 0, nil
	case "leader":
		mk, bound := dsync.NewLeaderElection(g)
		return mk, bound, nil
	case "mst":
		// MST runs on a weighted copy; the topology is identical.
		mk, bound := dsync.NewMST(dsync.WithRandomWeights(g, 7))
		return mk, bound, nil
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q (want bfs|flood|echo|leader|mst|abfs)", algo)
	}
}
