// Command synchronize runs a chosen synchronous algorithm under a chosen
// synchronizer and prints the measured overheads against the lockstep run.
//
// Usage:
//
//	synchronize -algo bfs    -sync main  -graph grid -rows 6 -cols 6
//	synchronize -algo leader -sync alpha -graph cycle -n 32
//	synchronize -algo mst    -sync main  -graph er -n 40 -m 120
package main

import (
	"flag"
	"fmt"
	"os"

	dsync "repro"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		algo = flag.String("algo", "bfs", "algorithm: bfs|flood|echo|leader|mst")
		sy   = flag.String("sync", "main", "synchronizer: main|alpha|beta|gamma")
		kind = flag.String("graph", "grid", "topology: path|cycle|grid|er|tree")
		n    = flag.Int("n", 36, "node count")
		m    = flag.Int("m", 0, "edge count (er)")
		rows = flag.Int("rows", 6, "grid rows")
		cols = flag.Int("cols", 6, "grid cols")
		seed = flag.Uint64("seed", 1, "delay adversary seed")
		mode = flag.String("mode", "auto", "lockstep execution mode: auto|single|multi")
	)
	flag.Parse()
	var execMode dsync.ExecutionMode
	switch *mode {
	case "auto":
		execMode = dsync.ModeAuto
	case "single":
		execMode = dsync.ModeSingle
	case "multi":
		execMode = dsync.ModeMulti
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want auto|single|multi)\n", *mode)
		return 2
	}
	g, err := buildGraph(*kind, *n, *m, *rows, *cols, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	mk, bound, err := buildAlgo(*algo, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sres := dsync.RunSyncMode(g, execMode, mk)
	if bound == 0 {
		bound = sres.Rounds + 2
	}
	adv := dsync.RandomDelays(*seed)
	var ares dsync.AsyncResult
	switch *sy {
	case "main":
		ares = dsync.Synchronize(g, bound, adv, mk)
	case "alpha":
		ares = dsync.SynchronizeAlpha(g, bound, adv, mk)
	case "beta":
		ares = dsync.SynchronizeBeta(g, bound, adv, mk)
	case "gamma":
		ares = dsync.SynchronizeGamma(g, bound, adv, mk)
	default:
		fmt.Fprintf(os.Stderr, "unknown synchronizer %q\n", *sy)
		return 2
	}
	match := len(ares.Outputs) == len(sres.Outputs)
	for v, want := range sres.Outputs {
		if fmt.Sprint(ares.Outputs[v]) != fmt.Sprint(want) {
			match = false
		}
	}
	fmt.Printf("algo=%s sync=%s graph=%s n=%d m=%d D=%d\n", *algo, *sy, *kind, g.N(), g.M(), g.Diameter())
	fmt.Printf("synchronous:  T(A)=%d rounds, M(A)=%d messages\n", sres.T, sres.M)
	fmt.Printf("asynchronous: time=%.1f, msgs=%d (+%d acks)\n", ares.Time, ares.Msgs, ares.Acks)
	fmt.Printf("overheads:    time %.1fx, messages %.1fx, outputs-match=%v\n",
		ares.Time/float64(max(sres.T, 1)), float64(ares.Msgs)/float64(max(sres.M, 1)), match)
	if !match {
		return 1
	}
	return 0
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
		wg := dsync.WithRandomWeights(g, 7)
		mk, bound := dsync.NewMST(wg)
		// MST runs on the weighted copy; topology is identical.
		return mk, bound, nil
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func buildGraph(kind string, n, m, rows, cols int, seed uint64) (*dsync.Graph, error) {
	switch kind {
	case "path":
		return dsync.Path(n), nil
	case "cycle":
		return dsync.Cycle(n), nil
	case "grid":
		return dsync.Grid(rows, cols), nil
	case "tree":
		return dsync.CompleteBinaryTree(n), nil
	case "er":
		if m == 0 {
			m = 3 * n
		}
		return dsync.RandomConnected(n, m, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}
