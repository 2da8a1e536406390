package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

func TestMain(m *testing.M) {
	// Process-launch tests re-exec this test binary as their workers;
	// MaybeWorker turns those children into shard workers and never
	// returns in them.
	MaybeWorker()
	os.Exit(m.Run())
}

// serialRun executes cfg's workload through the single-process serial
// engine — the byte-identity reference every sharded run is held to. Its
// outputs are in the dense form the coordinator reports.
func serialRun(t testing.TB, cfg Config) async.Result {
	t.Helper()
	g, err := graph.FromSpec(cfg.GraphSpec)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := ParseAdversary(cfg.Adversary)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := async.ParseFaultSpec(cfg.Faults)
	if err != nil {
		t.Fatal(err)
	}
	adv = async.WithFaults(adv, fs)
	mk, err := NewWorkload(cfg.Workload, WorkloadConfig{Sources: cfg.Sources, SegWords: cfg.SegWords})
	if err != nil {
		t.Fatal(err)
	}
	sim := async.New(g, adv, mk).WithMode(async.ModeSingle).DenseOutputs()
	if cfg.KeepTrace {
		sim.KeepTrace()
	}
	return sim.Run()
}

// compareResults diffs field by field so a mismatch names what diverged
// instead of dumping two multi-screen structs.
func compareResults(t *testing.T, got, want async.Result) {
	t.Helper()
	if got.Time != want.Time {
		t.Errorf("Time = %v, want %v", got.Time, want.Time)
	}
	if got.QuiesceTime != want.QuiesceTime {
		t.Errorf("QuiesceTime = %v, want %v", got.QuiesceTime, want.QuiesceTime)
	}
	if got.Msgs != want.Msgs {
		t.Errorf("Msgs = %d, want %d", got.Msgs, want.Msgs)
	}
	if got.Acks != want.Acks {
		t.Errorf("Acks = %d, want %d", got.Acks, want.Acks)
	}
	if got.Dropped != want.Dropped || got.Retrans != want.Retrans || got.Undeliverable != want.Undeliverable {
		t.Errorf("fault counters = %d/%d/%d, want %d/%d/%d (dropped/retrans/undeliverable)",
			got.Dropped, got.Retrans, got.Undeliverable,
			want.Dropped, want.Retrans, want.Undeliverable)
	}
	if !reflect.DeepEqual(got.PerProto, want.PerProto) {
		t.Errorf("PerProto = %v, want %v", got.PerProto, want.PerProto)
	}
	if !slices.Equal(got.OutSet, want.OutSet) || !slices.Equal(got.OutBodies, want.OutBodies) {
		t.Errorf("dense outputs diverge: %d of %d slots set, want %d of %d",
			outval.Count(got.OutSet), len(got.OutSet), outval.Count(want.OutSet), len(want.OutSet))
		for v := range min(len(got.OutSet), len(want.OutSet), len(got.OutBodies), len(want.OutBodies)) {
			if got.OutSet[v] != want.OutSet[v] || got.OutBodies[v] != want.OutBodies[v] {
				t.Errorf("  node %d: got %v %+v, want %v %+v", v, got.OutSet[v], got.OutBodies[v], want.OutSet[v], want.OutBodies[v])
			}
		}
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("Outputs diverge: %d entries vs %d", len(got.Outputs), len(want.Outputs))
		for id, w := range want.Outputs {
			if g, ok := got.Outputs[id]; !ok || !reflect.DeepEqual(g, w) {
				t.Errorf("  node %d: got %v (%T), want %v (%T)", id, g, g, w, w)
			}
		}
		for id := range got.Outputs {
			if _, ok := want.Outputs[id]; !ok {
				t.Errorf("  node %d: extra output %v", id, got.Outputs[id])
			}
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("Trace length %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if !reflect.DeepEqual(got.Trace[i], want.Trace[i]) {
			t.Fatalf("Trace[%d] = %+v, want %+v", i, got.Trace[i], want.Trace[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results differ outside the named fields: %+v vs %+v", got, want)
	}
}

// TestShardMatrix is the byte-identity matrix: adversaries × graphs ×
// seeds × shard counts, every sharded run (in-process workers over real
// unix sockets) compared DeepEqual — outputs, counters, PerProto, and the
// full delivery trace — against the serial engine. K=3 cuts unevenly, so
// its FLUSH groups mix local and remote calls, some are all remote, and a
// worker can stage no local call in a window.
func TestShardMatrix(t *testing.T) {
	graphs := []struct {
		spec string
		n    int
	}{
		{"grid3d:5x5x5", 125},
		{"grid:10x10", 100},
		{"pa:n=200,m=2,seed=5", 200},
		{"ring:k=8,c=4", 32},
	}
	advs := []string{"fixed:0.5", "skew:cut=60,fast=0.25", "random:%d", "flaky:%d", "edge:%d"}
	seeds := []uint64{3, 17}
	for _, gr := range graphs {
		for _, advT := range advs {
			for _, seed := range seeds {
				adv := advT
				if strings.Contains(advT, "%d") {
					adv = fmt.Sprintf(advT, seed)
				}
				// The seed also varies the source set, so the unseeded
				// adversaries get two distinct runs too.
				sources := []graph.NodeID{0}
				if seed == 17 {
					sources = []graph.NodeID{0, graph.NodeID(gr.n - 1)}
				}
				cfg := Config{
					GraphSpec: gr.spec,
					Workload:  "flood",
					Adversary: adv,
					Sources:   sources,
					KeepTrace: true,
				}
				want := serialRun(t, cfg)
				for _, k := range []int{1, 2, 3, 4} {
					cfg := cfg
					cfg.Shards = k
					t.Run(fmt.Sprintf("%s/%s/seed=%d/k=%d", gr.spec, adv, seed, k), func(t *testing.T) {
						rep, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, rep.Result, want)
						if rep.Stats.Shards != k {
							t.Errorf("Stats.Shards = %d, want %d", rep.Stats.Shards, k)
						}
						if k > 1 && rep.Stats.Frames == 0 {
							t.Errorf("no cross-shard frames on a %d-way run", k)
						}
					})
				}
			}
		}
	}
}

// TestShardBFS covers the monotone-relaxation workload, whose nodes
// output repeatedly (only the final value survives) and whose message
// volume depends on delivery order — still byte-identical when sharded.
func TestShardBFS(t *testing.T) {
	for _, spec := range []string{"grid3d:5x5x5", "pa:n=200,m=2,seed=5"} {
		cfg := Config{
			GraphSpec: spec,
			Workload:  "bfs",
			Adversary: "random:9",
			KeepTrace: true,
		}
		want := serialRun(t, cfg)
		for _, k := range []int{2, 4} {
			cfg := cfg
			cfg.Shards = k
			t.Run(fmt.Sprintf("%s/k=%d", spec, k), func(t *testing.T) {
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, rep.Result, want)
			})
		}
	}
}

// TestShardSegTransport pushes arena segments across shard boundaries:
// every message carries a pattern-filled segment that the receiver
// verifies word-for-word inside the delivery callback, so any re-homing
// bug panics the worker. Traces are excluded (segment handles are
// arena-local, the documented caveat); everything else must match, and
// Run itself fails if any worker's arena has live segments at the end.
func TestShardSegTransport(t *testing.T) {
	cases := []struct {
		spec  string
		words int
	}{
		{"grid:8x8", 96},
		{"grid3d:4x4x4", 7},
		// One segment spanning multiple arena chunks (chunk = 1<<16 words).
		{"cycle:6", 70000},
	}
	for _, c := range cases {
		cfg := Config{
			GraphSpec: c.spec,
			Workload:  "segflood",
			Adversary: "random:5",
			SegWords:  c.words,
		}
		want := serialRun(t, cfg)
		for _, k := range []int{2, 4} {
			cfg := cfg
			cfg.Shards = k
			t.Run(fmt.Sprintf("%s/words=%d/k=%d", c.spec, c.words, k), func(t *testing.T) {
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, rep.Result, want)
			})
		}
	}
}

// TestShardProcess runs real worker processes (re-execs of this test
// binary) end to end, including the settled-heap self-reports and the
// per-process ceiling check.
func TestShardProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Config{
		GraphSpec: "grid3d:6x6x6",
		Workload:  "flood",
		Adversary: "fixed:0.5",
		Shards:    2,
		KeepTrace: true,
		Launch:    LaunchProcess,
		CeilingMB: 1024,
	}
	want := serialRun(t, cfg)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, rep.Result, want)
	if rep.Stats.Windows == 0 || rep.Stats.StartupNs <= 0 {
		t.Errorf("implausible stats: %+v", rep.Stats)
	}
	for i, si := range rep.Shards {
		if si.GraphBytes <= 0 || si.Nodes <= 0 {
			t.Errorf("shard %d self-report implausible: %+v", i, si)
		}
		if si.HeapMB <= 0 {
			t.Errorf("shard %d reported no settled heap (process workers must probe)", i)
		}
	}
}

// TestShardConfigErrors pins the sanity checks that run before any
// process is spawned.
func TestShardConfigErrors(t *testing.T) {
	base := Config{GraphSpec: "grid:4x4", Workload: "flood", Adversary: "fixed:0.5"}
	for name, mutate := range map[string]func(*Config){
		"no graph":        func(c *Config) { c.GraphSpec = "" },
		"bad spec":        func(c *Config) { c.GraphSpec = "nope:3" },
		"bad workload":    func(c *Config) { c.Workload = "nope" },
		"bad adversary":   func(c *Config) { c.Adversary = "nope:1" },
		"NaN delay":       func(c *Config) { c.Adversary = "fixed:NaN" },
		"negative shards": func(c *Config) { c.Shards = -1 },
		"source outside":  func(c *Config) { c.Sources = []graph.NodeID{0, 99} },
		"negative words":  func(c *Config) { c.SegWords = -5 },
		"process w/o spec": func(c *Config) {
			c.GraphSpec = ""
			g, _ := graph.FromSpec("grid:4x4")
			c.Graph = g
			c.Launch = LaunchProcess
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestShardAuto exercises the Shards=0 path (execpolicy.AutoShards keeps
// small graphs unsharded) and oversized K (clamped to n).
func TestShardAuto(t *testing.T) {
	cfg := Config{GraphSpec: "grid:6x6", Workload: "flood", Adversary: "fixed:0.5", KeepTrace: true}
	want := serialRun(t, cfg)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Shards != 1 {
		t.Errorf("auto sharded a %d-link toy graph %d ways", 36, rep.Stats.Shards)
	}
	compareResults(t, rep.Result, want)

	cfg.GraphSpec = "cycle:5"
	cfg.Shards = 64
	want = serialRun(t, cfg)
	rep, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Shards > 5 {
		t.Errorf("K=%d exceeds the 5-node graph", rep.Stats.Shards)
	}
	compareResults(t, rep.Result, want)
}

// TestShardFaultMatrix extends the byte-identity matrix to the fault
// plane: fault schedules × graphs × shard counts, every sharded run
// compared field-for-field (counters, outputs, full trace including
// Undeliverable entries) against the serial engine with the identical
// schedule. Fault decisions are pure functions of (seed, endpoints,
// txSeq, epoch), so shard boundaries must not shift a single drop.
func TestShardFaultMatrix(t *testing.T) {
	faults := []string{
		"drop:p=0.1,budget=3,seed=5",
		"drop:p=0.3,budget=0,seed=9",
		"crash:p=0.02,drop:p=0.05,budget=2,seed=7",
		"link:p=0.05,budget=2,seed=11",
	}
	graphs := []string{"grid:10x10", "pa:n=150,m=2,seed=5", "ring:k=8,c=4"}
	for _, spec := range faults {
		for _, gr := range graphs {
			cfg := Config{
				GraphSpec: gr,
				Workload:  "flood",
				Adversary: "random:13",
				Faults:    spec,
				KeepTrace: true,
			}
			want := serialRun(t, cfg)
			for _, k := range []int{1, 2, 4} {
				cfg := cfg
				cfg.Shards = k
				t.Run(fmt.Sprintf("%s/%s/k=%d", gr, spec, k), func(t *testing.T) {
					rep, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, rep.Result, want)
					if rep.Result.Dropped != rep.Result.Retrans+rep.Result.Undeliverable {
						t.Errorf("dropped %d != retrans %d + undeliverable %d",
							rep.Result.Dropped, rep.Result.Retrans, rep.Result.Undeliverable)
					}
				})
			}
			if want.Dropped == 0 {
				t.Errorf("%s on %s dropped nothing — matrix row is vacuous", spec, gr)
			}
		}
	}
}

// TestShardFaultProcess is the end-to-end cross-process check: real
// worker processes under a combined crash+drop schedule, byte-identical
// to serial. The fault counters and trace Kind bytes travel the RESULT
// wire protocol, so this also pins their serialization.
func TestShardFaultProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Config{
		GraphSpec: "grid3d:5x5x5",
		Workload:  "flood",
		Adversary: "skew:cut=60,fast=0.25",
		Faults:    "crash:p=0.01,drop:p=0.1,budget=2,seed=3",
		Shards:    2,
		KeepTrace: true,
		Launch:    LaunchProcess,
		CeilingMB: 1024,
	}
	want := serialRun(t, cfg)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, rep.Result, want)
	if want.Dropped == 0 {
		t.Error("process fault run dropped nothing — check the schedule")
	}
}

// TestShardFaultConfigError pins Run's early validation of the fault
// spec string.
func TestShardFaultConfigError(t *testing.T) {
	cfg := Config{GraphSpec: "grid:4x4", Workload: "flood", Adversary: "fixed:0.5", Faults: "drop:p=2"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

// TestReadResultRejectsUnknownOutputKind: a worker RESULT whose output
// carries a kind no decoder is registered for is an error at the
// coordinator, not a panic while decoding the merged outputs.
func TestReadResultRejectsUnknownOutputKind(t *testing.T) {
	e := wire.NewEnc(nil)
	e.F64(1) // time
	e.F64(1) // quiesce time
	for range 7 {
		e.U64(0) // msgs, acks, dropped, retrans, undeliverable, steps, live segments
	}
	for range 3 {
		e.U32(0) // nodes, links, boundary links
	}
	for range 3 {
		e.U64(0) // graph bytes, engine bytes, heap MB
	}
	e.U32(0) // per-proto counts
	mark := e.BeginBlob()
	e.I32(3)
	e.RawBody(wire.Body{Kind: 0x1234})
	e.EndBlob(mark)
	e.U32(0) // trace
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMsg(w, msgResult, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wc := &workerConn{r: bufio.NewReader(&buf)}
	g, err := graph.FromSpec("cycle:8")
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Shards: make([]ShardInfo, 1), Result: async.Result{
		OutSet: make([]bool, g.N()), OutBodies: make([]wire.Body, g.N())}}
	err = (&coord{part: graph.PartitionContiguous(g, 1)}).readResult(wc, rep, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "kind 4660") {
		t.Fatalf("readResult of an unregistered output kind: err %v, want a kind-4660 error", err)
	}
}

// TestResultOutputsRefuseHostileBodies feeds readResult the records a
// worker owning [4, 8) of a 12-node graph could not have sent. Each must
// fail as a *async.ShardError naming the node, without a panic and without
// touching another shard's slots; the records ShardRawOutputs does send
// land in the dense columns as they are.
func TestResultOutputsRefuseHostileBodies(t *testing.T) {
	const lo, hi, n = 4, 8, 12
	ok := outval.Int64(7)
	var arena wire.Arena
	seg, _ := arena.Alloc(2)
	type rec struct {
		id graph.NodeID
		b  wire.Body
	}
	// decodeOutputs hands the records, as the outputs blob of a RESULT the
	// worker of shard 1 in cuts {0, 4, 8, 12} sends, to readResult.
	decodeOutputs := func(recs []rec, set []bool, bodies []wire.Body) error {
		e := wire.NewEnc(nil)
		e.Raw(make([]byte, 2*8+7*8+3*4+3*8+4)) // counters, footprint, no per-proto counts
		mark := e.BeginBlob()
		for _, r := range recs {
			e.I32(int32(r.id))
			e.RawBody(r.b)
		}
		e.EndBlob(mark)
		e.U32(0) // trace
		var buf bytes.Buffer
		if err := writeMsg(bufio.NewWriter(&buf), msgResult, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		rep := &Report{Shards: make([]ShardInfo, 3), Result: async.Result{OutSet: set, OutBodies: bodies}}
		return (&coord{part: graph.PartitionFromCuts([]graph.NodeID{0, lo, hi, n})}).readResult(
			&workerConn{r: bufio.NewReader(&buf)}, rep, 1, nil)
	}
	for _, tc := range []struct {
		name string
		recs []rec
		node string
	}{
		{"past range", []rec{{5, ok}, {9, ok}}, "node 9: outside (5, 8)"},
		{"below range", []rec{{1, ok}}, "node 1: outside (3, 8)"},
		{"descending", []rec{{6, ok}, {5, ok}}, "node 5: outside (6, 8)"},
		{"repeated", []rec{{5, ok}, {5, ok}}, "node 5: outside (5, 8)"},
		{"unknown kind", []rec{{5, wire.Body{Kind: 0x1234}}}, "node 5: kind 4660"},
		{"segment", []rec{{6, wire.Body{Kind: ok.Kind, A: 7, Seg: seg}}}, "node 6: a segment handle"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, bodies := make([]bool, n), make([]wire.Body, n)
			err := decodeOutputs(tc.recs, set, bodies)
			var se *async.ShardError
			if !errors.As(err, &se) || !strings.Contains(se.Reason, tc.node) {
				t.Fatalf("readResult returned %v, want a *async.ShardError about %q", err, tc.node)
			}
			for v := range set {
				if set[v] && (v < lo || v >= hi) {
					t.Errorf("slot %d, outside the sender's range, was written", v)
				}
			}
		})
	}
	set, bodies := make([]bool, n), make([]wire.Body, n)
	if err := decodeOutputs([]rec{{4, ok}, {7, ok}}, set, bodies); err != nil {
		t.Fatal(err)
	}
	for v := range set {
		if want := v == 4 || v == 7; set[v] != want || (want && bodies[v] != ok) {
			t.Errorf("slot %d: set %v body %+v", v, set[v], bodies[v])
		}
	}
}

// TestCoordinatorAllocsIndependentOfN pins the coordinator's allocations
// for a process-launched flood: outputs merge into two dense columns
// sized once, and frame headers cost nothing, so going from 4 096 to
// 32 768 nodes adds under 1 % of the larger n (the windows grow with the
// diameter) and each run stays under 1 000.
func TestCoordinatorAllocsIndependentOfN(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	allocs := func(spec string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(Config{GraphSpec: spec, Shards: 2, Workload: "flood", Adversary: "fixed:1", Launch: LaunchProcess})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outval.Count(rep.Result.OutSet), len(rep.Result.OutSet); got != want {
			t.Fatalf("%s: %d of %d nodes output", spec, got, want)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := allocs("grid3d:16x16x16"), allocs("grid3d:32x32x32")
	t.Logf("coordinator allocations: %d at n=4096, %d at n=32768", small, large)
	if small >= 1000 || large >= 1000 {
		t.Errorf("coordinator made %d and %d allocations, want < 1000 each", small, large)
	}
	if d := max(small, large) - min(small, large); d >= 32768/100 {
		t.Errorf("coordinator allocations differ by %d between n=4096 and n=32768, want < 327", d)
	}
}

// TestMsgHeadersDoNotAllocate: a writeMsg → readMsg round trip through a
// retained bufio pair and receive buffer makes no allocation.
func TestMsgHeadersDoNotAllocate(t *testing.T) {
	var pipe bytes.Buffer
	w, r := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	payload, buf := []byte("window"), make([]byte, 0, 16)
	if got := testing.AllocsPerRun(100, func() {
		if err := writeMsg(w, msgFlush, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, err := readMsg(r, buf)
		if err != nil || typ != msgFlush || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: type %d payload %q, %v", typ, got, err)
		}
	}); got != 0 {
		t.Errorf("header round trip allocates %v times, want 0", got)
	}
}

// TestReadMsgShortHeader: a stream that ends before a header is io.EOF,
// one that ends inside it io.ErrUnexpectedEOF, as with io.ReadFull.
func TestReadMsgShortHeader(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want error
	}{{"", io.EOF}, {"\x03\x01", io.ErrUnexpectedEOF}} {
		if _, _, err := readMsg(bufio.NewReader(strings.NewReader(tc.in)), nil); err != tc.want {
			t.Errorf("readMsg(%q) = %v, want %v", tc.in, err, tc.want)
		}
	}
}

// firstFlush serves shard 0 of a two-way cut of cycle:8 — a flood from
// node 3 under fixed:1 — over a pipe, playing the coordinator up to the
// worker's first FLUSH, which it returns decoded: one group, node 3's Init,
// whose second call (3→4) is remote. done yields serveWorker's result.
func firstFlush(t *testing.T) (w *bufio.Writer, flush *flushMsg, done <-chan error) {
	t.Helper()
	coordEnd, workerEnd := net.Pipe()
	t.Cleanup(func() { coordEnd.Close() })
	errc := make(chan error, 1)
	go func() {
		defer workerEnd.Close()
		errc <- serveWorker(workerEnd, 0, nil, false)
	}()
	r := bufio.NewReader(coordEnd)
	w = bufio.NewWriter(coordEnd)
	if typ, _, err := readMsg(r, nil); err != nil || typ != msgJoin {
		t.Fatalf("JOIN: type %d, %v", typ, err)
	}
	hcfg, err := json.Marshal(&hello{GraphSpec: "cycle:8", Cuts: []graph.NodeID{0, 4, 8},
		Adversary: "fixed:1", Workload: "flood", Sources: []graph.NodeID{3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(w, msgHello, hcfg); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readMsg(r, nil)
	if err != nil || typ != msgFlush {
		t.Fatalf("FLUSH: type %d, %v", typ, err)
	}
	flush = new(flushMsg)
	d := wire.NewDec(payload, nil)
	if err := flush.code(d.Coder()); err != nil {
		t.Fatal(err)
	}
	if err := finish(d, "FLUSH"); err != nil {
		t.Fatal(err)
	}
	if len(flush.groups) != 1 || flush.groups[0].count != 2 || len(flush.remotes) != 1 || flush.remotes[0].idx != 1 {
		t.Fatalf("first FLUSH %+v, want node 3's two calls with the second remote", flush)
	}
	return w, flush, errc
}

// TestShardMalformedOpen: a corrupt OPEN, or a corrupt FLUSH at the
// coordinator, is a *async.ShardError naming what is wrong — never a
// panic in the worker or the coordinator.
func TestShardMalformedOpen(t *testing.T) {
	// reframe rewrites the remote 3→4 delivery's endpoints.
	reframe := func(flush *flushMsg, src, dst graph.NodeID) []byte {
		var a wire.Arena
		var ev async.ShardEvent
		codeEvent(wire.NewDec(flush.remotes[0].frame, &a).Coder(), &ev)
		ev.Src, ev.Dst = src, dst
		e := wire.NewEnc(&a)
		codeEvent(e.Coder(), &ev)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name    string
		runs    []async.ShardRun
		inbound func(*flushMsg) []byte // one routed frame, or nil
		reason  string
	}{
		{"grant total", []async.ShardRun{{Start: 0, Len: 3}}, nil, "3 seqs granted for 2 staged calls"},
		{"non-edge", []async.ShardRun{{Start: 0, Len: 2}},
			func(f *flushMsg) []byte { return reframe(f, 6, 1) }, "6->1 is a non-edge"},
		{"foreign node", []async.ShardRun{{Start: 0, Len: 2}},
			func(f *flushMsg) []byte { return f.remotes[0].frame }, "node 4 is not owned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, flush, done := firstFlush(t)
			msg := openMsg{wStart: 1, runs: tc.runs}
			if tc.inbound != nil {
				msg.inbound = []routed{{seq: 2, evT: 1, frame: tc.inbound(flush)}}
			}
			var open wire.Enc
			msg.code(open.Coder())
			if err := writeMsg(w, msgOpen, open.Bytes()); err != nil {
				t.Fatal(err)
			}
			err := <-done
			var se *async.ShardError
			if !errors.As(err, &se) || !strings.Contains(se.Reason, tc.reason) {
				t.Fatalf("worker returned %v, want a *async.ShardError about %q", err, tc.reason)
			}
		})
	}

	t.Run("remote index", func(t *testing.T) {
		_, flush, _ := firstFlush(t)
		flush.remotes[0].idx = flush.groups[0].count // one past the group
		var e wire.Enc
		flush.code(e.Coder())
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeMsg(bw, msgFlush, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		err := (&coord{}).readFlush(&workerConn{r: bufio.NewReader(&buf)})
		var se *async.ShardError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, "index 2 of a 2-call group") {
			t.Fatalf("readFlush returned %v, want a *async.ShardError about the index", err)
		}
	})
}
