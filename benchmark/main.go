// Command benchmark is the one instrument every performance claim about this
// repository is measured with: six named workloads through the default public
// API, end-to-end metrics from untraced ops, and per-layer metrics from a
// separate outside-in traced phase. See README.md for the method.
//
// The driver's form is
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// whose last line of output is one JSON object with the keys correct,
// attempted, failed and metrics. Without --workload every workload runs in
// turn, each ending in its own such line; without --trace both phases run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	dsync "repro"
	"repro/internal/shard"
)

// The method's constants, the same on every commit.
const (
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
	timeSlices     = 5  // run_s is the quietest slice's median
	// Set-ups come in two batches, before and after the ops; each batch
	// repeats a cheap set-up until setupBudget is spent.
	minSetups   = 2
	maxSetups   = 12
	setupBudget = 500 * time.Millisecond
)

func main() {
	shard.MaybeWorker() // shard-flood's workers are this binary, re-executed
	// Load comes from this one process, with no more threads than CPUs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	os.Exit(run(os.Args[1:], os.Stdout))
}

type options struct {
	names    []string
	seed     uint64
	seconds  float64
	timed    bool
	traced   bool
	traceOut string
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names     = fs.String("workload", "", "comma-separated workloads to run (default: all, in order)")
		seed      = fs.Uint64("seed", 1, "feeds every graph-generator and adversary seed")
		seconds   = fs.Float64("seconds", defaultSeconds, "how long each workload's timed phase measures")
		trace     = fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		traceOut  = fs.String("trace-out", "benchmark/out/trace.json", "where the traced phase's spans are written")
		list      = fs.Bool("list", false, "print workloads and metrics, then exit")
		selfcheck = fs.Bool("selfcheck", false, "run the suite twice on one seed and once on seed+1 and compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(out)
		return 0
	}
	o := options{seed: *seed, seconds: *seconds, timed: *trace != "1", traced: *trace != "0", traceOut: *traceOut}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0 or 1\n", *trace)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds %v: want a positive number\n", o.seconds)
		return 2
	}
	if *names == "" {
		for _, w := range workloads {
			o.names = append(o.names, w.name)
		}
	} else {
		for _, name := range strings.Split(*names, ",") {
			if findWorkload(name) == nil {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", name)
				return 2
			}
			o.names = append(o.names, name)
		}
	}
	printHeader(out, header(o))
	if *selfcheck {
		return selfCheck(out, o)
	}
	return suite(out, o, &full)
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// header records what two runs must share for their numbers to be
// comparable; results whose GOMAXPROCS differ must not be compared.
func header(o options) map[string]any {
	kernel := "unknown"
	if b, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"kernel": kernel, "seed": o.seed, "seconds": o.seconds, "slices": timeSlices,
	}
}

func printHeader(out io.Writer, h map[string]any) {
	fmt.Fprintf(out, "# nproc=%v GOMAXPROCS=%v go=%v kernel=%q seed=%v seconds=%v slices=%v\n",
		h["nproc"], h["GOMAXPROCS"], h["go"], h["kernel"], h["seed"], h["seconds"], h["slices"])
}

func printList(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-14s %s\n", w.name, w.why)
	}
	fmt.Fprintln(out, "end-to-end metrics (every workload reports all):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-26s %-6s %-7s bound %g\n", m.name, m.unit, m.better, m.bound)
	}
	fmt.Fprintln(out, "per-layer metrics (traced phase; what each is expected to move):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-26s %-6s %-7s %s\n", m.name, m.unit, m.better, m.moves)
	}
}

// result is the contract's last-line object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// suite runs the selected workloads one after another, never co-resident:
// each is torn down and the heap collected before the next starts.
func suite(out io.Writer, o options, sc *scale) int {
	results, err := runSuite(out, o, sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

func runSuite(out io.Writer, o options, sc *scale) (map[string]*result, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	results := map[string]*result{}
	for _, name := range o.names {
		res, err := runWorkload(out, findWorkload(name), o, sc, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		results[name] = res
		line, _ := json.Marshal(res)
		fmt.Fprintf(out, "%s\n", line)
	}
	if tr != nil {
		if err := tr.write(o.traceOut, header(o)); err != nil {
			return nil, fmt.Errorf("writing trace: %v", err)
		}
	}
	return results, nil
}

func runWorkload(out io.Writer, w *workload, o options, sc *scale, tr *tracer) (*result, error) {
	res := &result{Metrics: map[string]value{}}
	if o.timed {
		t, err := runTimed(w, sc, o.seed, o.seconds)
		if err != nil {
			return nil, err
		}
		t.print(out, w.name)
		res.Attempted, res.Failed = t.attempted, t.failed
		values := t.metrics()
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{values[m.name], m.unit}
		}
	}
	if o.traced {
		failed, err := runTraced(w, sc, o.seed, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if failed != nil {
			res.Failed++
			fmt.Fprintf(out, "  traced phase FAILED: %v\n", failed)
		}
		fmt.Fprintf(out, "== %s: per-layer metrics (traced phase)\n", w.name)
		for _, m := range perLayer {
			v := tr.metrics[m.name]
			res.Metrics[m.name] = value{v, m.unit}
			fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// timed is one workload's timed phase.
type timed struct {
	attempted, failed int
	firstErr          error
	setups            []float64   // seconds, one per from-scratch set-up
	slices            [][]float64 // op seconds, by the slice the op started in
	allocs            []float64
	retainedMB        float64
	first             opResult // every op must repeat its work and sim_* numbers
}

func (t *timed) metrics() map[string]float64 {
	run := quietest(t.slices)
	return map[string]float64{
		"setup_s":       median(t.setups),
		"run_s":         run,
		"work_per_s":    float64(t.first.work) / run,
		"allocs_per_op": median(t.allocs),
		"retained_mb":   t.retainedMB,
		"sim_msgs":      float64(t.first.simMsgs),
	}
}

func (t *timed) print(out io.Writer, name string) {
	var all []float64
	for _, s := range t.slices {
		all = append(all, s...)
	}
	fmt.Fprintf(out, "== %s: %d ops attempted, %d failed (fail_share %g); sim_time %g\n",
		name, t.attempted, t.failed, float64(t.failed)/float64(t.attempted), t.first.simTime)
	if t.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", t.firstErr)
	}
	m := t.metrics()
	for _, em := range endToEnd {
		fmt.Fprintf(out, "  %-26s %14.6g %s", em.name, m[em.name], em.unit)
		switch em.name {
		case "setup_s":
			fmt.Fprintf(out, "   median of %d set-ups", len(t.setups))
		case "run_s":
			fmt.Fprintf(out, "   quietest of %d slices; all ops: median %.4g q1 %.4g q3 %.4g min %.4g max %.4g n %d",
				timeSlices, median(all), quantile(all, 0.25), quantile(all, 0.75), quantile(all, 0), quantile(all, 1), len(all))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  set-up seconds: %.4g\n", t.setups)
	fmt.Fprintf(out, "  op seconds by slice: %.4g\n", t.slices)
}

// safeOp runs one op; a panic is a failed op, not a failed suite.
func safeOp(inst instance) (r opResult) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	return inst.op()
}

// setUps sets the workload up from scratch, several times while that is
// cheap, and files each set-up's seconds. It returns the last instance and
// the settled heap from before that one was built.
func (t *timed) setUps(w *workload, sc *scale, seed uint64) (inst instance, base uint64, err error) {
	var spent time.Duration
	for n := 1; ; n++ {
		inst = nil // the previous set-up must be garbage before the heap is read
		dsync.ResetCoverCache()
		base = settledHeap()
		start := time.Now()
		if inst, err = w.setup(sc, seed, nil); err != nil {
			return nil, 0, fmt.Errorf("set-up: %v", err)
		}
		d := time.Since(start)
		spent += d
		t.setups = append(t.setups, d.Seconds())
		if _, ok := inst.(remote); ok || n >= maxSetups || (n >= minSetups && spent >= setupBudget) {
			return inst, base, nil
		}
	}
}

// runTimed sets the workload up, runs one untimed warm-up op, runs ops back
// to back with tracing off for seconds, give or take half an op, and sets the
// workload up again. Only a failing set-up is an error: a failing op is
// counted.
func runTimed(w *workload, sc *scale, seed uint64, seconds float64) (*timed, error) {
	t := &timed{slices: make([][]float64, timeSlices)}
	inst, base, err := t.setUps(w, sc, seed)
	if err != nil {
		return nil, err
	}

	record := func(r opResult) {
		t.attempted++
		if t.attempted == 1 {
			t.first = r
		}
		err := r.err
		if err == nil && (r.work != t.first.work || r.simTime != t.first.simTime || r.simMsgs != t.first.simMsgs) {
			err = fmt.Errorf("work/sim_time/sim_msgs %d/%v/%d differ from the first op's %d/%v/%d",
				r.work, r.simTime, r.simMsgs, t.first.work, t.first.simTime, t.first.simMsgs)
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
		}
	}
	record(safeOp(inst)) // warm-up: checked, not timed

	var startups []float64
	var last float64 // the previous op's seconds
	start := time.Now()
	for n := 0; ; n++ {
		// A further op starts only while half of it is expected to fit, so
		// the window neither ends an op early nor overruns by a whole one.
		at := time.Since(start).Seconds()
		if n > 0 && at+last/2 >= seconds {
			break
		}
		r := safeOp(inst)
		record(r)
		last = r.elapsed.Seconds()
		k := min(int(at/seconds*timeSlices), timeSlices-1)
		t.slices[k] = append(t.slices[k], r.elapsed.Seconds())
		t.allocs = append(t.allocs, float64(r.allocs))
		if r.startup > 0 {
			startups = append(startups, r.startup.Seconds())
		}
	}
	if r, ok := inst.(remote); ok {
		// shard-flood's set-up happens inside every op: process start, graph
		// generation and partition carving, as shard.Stats.StartupNs.
		t.setups, t.retainedMB = startups, r.retainedMB()
		return t, nil
	}
	t.retainedMB = (float64(settledHeap()) - float64(base)) / (1 << 20)
	runtime.KeepAlive(inst)
	// The second half of the set-up samples comes after the ops, so setup_s
	// sees the host over the same stretch of time as run_s, not one moment.
	inst = nil
	if _, _, err := t.setUps(w, sc, seed); err != nil {
		return nil, err
	}
	return t, nil
}

// runTraced sets the workload up once more under the tracer and runs its
// traced phase. The first return is a failed check, the second a failed
// set-up.
func runTraced(w *workload, sc *scale, seed uint64, tr *tracer) (failed, err error) {
	clear(tr.metrics)
	tr.beginOp(false)
	dsync.ResetCoverCache()
	runtime.GC()
	inst, err := w.setup(sc, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %v", err)
	}
	defer func() {
		if p := recover(); p != nil {
			failed = fmt.Errorf("panic: %v", p)
		}
	}()
	return inst.layers(tr), nil
}

// selfCheck runs the suite twice with one seed and once with seed+1. It
// fails unless the same-seed sets agree: sim_* equal, no failed op, and for
// every other end-to-end metric the two best readings within the metric's
// bound; and unless seed+1 passes every output check and resolves every
// workload to the same execution mode. Host noise only adds time, so a
// workload whose two readings disagree is measured again, up to twice, before
// that counts. It prints the spread it saw per metric and workload.
func selfCheck(out io.Writer, o options) int {
	o.timed, o.traced = true, true
	var sets [3]map[string]*result
	for i := range sets {
		oi := o
		oi.seed += uint64(i / 2)
		fmt.Fprintf(out, "# set %d, seed %d\n", i+1, oi.seed)
		var err error
		if sets[i], err = runSuite(out, oi, &full); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	ok := true
	fmt.Fprintln(out, "== selfcheck: the two best same-seed readings of each metric")
	for _, name := range o.names {
		same := []*result{sets[0][name], sets[1][name]}
		for len(same) < 4 && !agree(io.Discard, name, same) {
			fmt.Fprintf(out, "# %s: the same-seed readings disagree; measuring again\n", name)
			oi := o
			oi.names = []string{name}
			again, err := runSuite(out, oi, &full)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			same = append(same, again[name])
		}
		ok = agree(out, name, same) && ok
		other := sets[2][name]
		for _, m := range []string{"execpolicy.async_choice", "execpolicy.lockstep_multi"} {
			if other.Metrics[m].Value != same[0].Metrics[m].Value {
				ok = false
				fmt.Fprintf(out, "  %-14s %s differs at seed+1: %v, %v\n", name, m, same[0].Metrics[m].Value, other.Metrics[m].Value)
			}
		}
		if other.Failed > 0 {
			ok = false
			fmt.Fprintf(out, "  %-14s %d failed ops at seed+1\n", name, other.Failed)
		}
	}
	if !ok {
		fmt.Fprintln(out, "selfcheck FAILED")
		return 1
	}
	fmt.Fprintln(out, "selfcheck passed")
	return 0
}

// agree reports whether same-seed results of one workload agree, printing a
// row per end-to-end metric: its two best readings and the gap between them.
func agree(out io.Writer, name string, same []*result) bool {
	ok := true
	for _, r := range same {
		if r.Failed > 0 {
			ok = false
			fmt.Fprintf(out, "  %-14s %d failed ops\n", name, r.Failed)
		}
		for _, m := range []string{"sim.time", "sim.msgs"} {
			if r.Metrics[m].Value != same[0].Metrics[m].Value {
				ok = false
				fmt.Fprintf(out, "  %-14s %s differs: %v, %v\n", name, m, same[0].Metrics[m].Value, r.Metrics[m].Value)
			}
		}
	}
	for _, m := range endToEnd {
		var xs []float64
		for _, r := range same {
			xs = append(xs, r.Metrics[m.name].Value)
		}
		sort.Float64s(xs)
		best, next := xs[0], xs[1]
		if m.better == "higher" {
			best, next = xs[len(xs)-1], xs[len(xs)-2]
		}
		gap := math.Abs(next-best) / best
		verdict := "ok"
		// Set-ups of a few milliseconds move by more than a tenth for no
		// reason; 0.02 s is the floor below which they do not count.
		if gap > m.bound && !(m.name == "setup_s" && next-best < 0.02) {
			ok, verdict = false, "OUT OF BOUND"
		}
		fmt.Fprintf(out, "  %-14s %-14s %12.6g %12.6g %6.2f%% of %d readings (bound %g%%) %s\n",
			name, m.name, best, next, 100*gap, len(xs), 100*m.bound, verdict)
	}
	return ok
}
