// Command asyncbfs runs the complete asynchronous BFS (Theorems 4.23/4.24)
// on a chosen topology and prints per-node distances plus the run's
// measured complexity.
//
// Usage:
//
//	asyncbfs -graph grid -rows 6 -cols 8 -sources 0,47 -seed 3
//	asyncbfs -graph cycle -n 64
//	asyncbfs -graph er -n 80 -m 240
//	asyncbfs -graph grid3d:215x215x215 -quiet   # spec form; ~10M nodes
//
// A -graph value containing ':' is parsed as a graph.FromSpec string
// (grid3d:XxYxZ, pa:n=…,m=…,seed=…, ring:k=…,c=…, and the classic
// families), which reaches the implicit CSR generators sized for
// ten-million-node runs. The header's exact-diameter column is computed
// only for graphs small enough for its O(n·m) sweep; huge graphs print
// D=- instead of stalling before the run starts.
//
// Multi-process relaxation BFS over the same seeded delays (distances
// only, with checkpoint/resume) is cmd/shardsim's -workload bfs
// -adv random:<seed>.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	dsync "repro"
	"repro/internal/apps"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		kind    = flag.String("graph", "grid", "topology: path|cycle|grid|er|tree, or a spec like grid3d:100x100x100")
		n       = flag.Int("n", 36, "node count (path/cycle/er/tree)")
		m       = flag.Int("m", 0, "edge count (er; default 3n)")
		rows    = flag.Int("rows", 6, "grid rows")
		cols    = flag.Int("cols", 6, "grid cols")
		seed    = flag.Uint64("seed", 1, "delay adversary seed")
		sources = flag.String("sources", "0", "comma-separated source IDs")
		mode    = flag.String("mode", "auto", "async engine execution mode: auto|single|multi|spec")
		quiet   = flag.Bool("quiet", false, "suppress per-node output")
		faults  = flag.String("faults", "", "fault schedule (e.g. drop:p=0.05,budget=3,seed=7); empty = fault-free")
	)
	flag.Parse()
	var execMode dsync.AsyncExecutionMode
	switch *mode {
	case "auto":
		execMode = dsync.AsyncModeAuto
	case "single":
		execMode = dsync.AsyncModeSingle
	case "multi":
		execMode = dsync.AsyncModeMulti
	case "spec":
		// The synchronizer stack's state codecs double as its StateCloner,
		// so this runs genuinely speculatively (no fallback; the regression
		// test on SpecStats().FellBack pins it).
		execMode = dsync.AsyncModeSpec
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want auto|single|multi|spec)\n", *mode)
		return 2
	}
	g, err := buildGraph(*kind, *n, *m, *rows, *cols, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	srcs, err := parseSources(*sources, g.N())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fs, err := dsync.ParseFaultSpec(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res := dsync.AsyncBFSMode(g, srcs, dsync.WithFaults(dsync.RandomDelays(*seed), fs), execMode)
	// The exact diameter is an O(n·m) all-pairs sweep — a header nicety on
	// small graphs, hours of preamble on ten million nodes. Skip it there.
	diam := "-"
	if g.N() <= maxDiameterNodes {
		diam = strconv.Itoa(g.Diameter())
	}
	fmt.Printf("graph=%s n=%d m=%d D=%s sources=%v\n", *kind, g.N(), g.M(), diam, srcs)
	fmt.Printf("iterations=%d final-threshold=%d time=%.1f msgs=%d\n",
		res.Iterations, res.FinalThreshold, res.Time, res.Msgs)
	if *quiet {
		return 0
	}
	for v := 0; v < g.N(); v++ {
		switch o := res.Outputs[dsync.NodeID(v)].(type) {
		case apps.TBFSResult:
			fmt.Printf("node %3d: dist=%d parent=%d source=%d\n", v, o.Dist, o.Parent, o.Source)
		case apps.TBFSSourceDone:
			fmt.Printf("node %3d: source (dist=0)\n", v)
		default:
			fmt.Printf("node %3d: %v\n", v, o)
		}
	}
	return 0
}

// maxDiameterNodes bounds the graphs whose exact diameter the header
// reports; above it the O(n·m) sweep would dwarf the BFS being measured.
const maxDiameterNodes = 1 << 14

func buildGraph(kind string, n, m, rows, cols int, seed uint64) (*dsync.Graph, error) {
	if strings.Contains(kind, ":") {
		return dsync.GraphFromSpec(kind)
	}
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

func parseSources(s string, n int) ([]dsync.NodeID, error) {
	var out []dsync.NodeID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("bad source %q (need 0..%d)", part, n-1)
		}
		out = append(out, dsync.NodeID(v))
	}
	return out, nil
}
