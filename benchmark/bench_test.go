package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	dsync "repro"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/shard"
)

// shard-flood re-executes the running binary as its workers.
func TestMain(m *testing.M) {
	shard.MaybeWorker()
	os.Exit(m.Run())
}

// toy keeps every workload's shape at sizes that run in milliseconds. It is
// a test-only table, not a user flag: users always measure full.
var toy = scale{
	syncBFS:     "er:n=120,m=300",
	floodFixed:  "grid3d:8x8x8",
	floodRandom: "pa:n=400,m=3",
	lockstepBFS: "er:n=600,m=2400",
	checkpoint:  "grid:6x6",
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type manifest struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code measures %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metric, limit int, bounded bool) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code, limit %d", kind, len(got), len(want), limit)
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, w)
			}
			if !name.MatchString(w.name) || !unit.MatchString(w.unit) || seen[w.name] {
				t.Errorf("%s %s (%s): bad or repeated name or unit", kind, w.name, w.unit)
			}
			seen[w.name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: end-to-end metrics carry a bound, per-layer ones do not", kind, w.name)
			} else if bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in code, want within (0, 0.25]", kind, w.name, *g.Bound, w.bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, 16, true)
	compare("per_layer", m.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	if lo, hi := quantile(xs, 0), quantile(xs, 1); lo != 1 || hi != 5 {
		t.Errorf("min, max = %v, %v, want 1, 5", lo, hi)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// The noisy first slice and the empty last one must not decide.
	if got := quietest([][]float64{{9, 9, 9}, {2, 3, 100}, nil}); got != 3 {
		t.Errorf("quietest = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
}

// TestSuite runs both phases of every workload at toy size and checks that
// each emits exactly the declared metrics, passes its own output checks, and
// that no per-layer number is negative: the forced-Single decomposition must
// leave the engine a self time after the decorators' exclusive shares.
func TestSuite(t *testing.T) {
	o := options{seed: 3, seconds: 0.05, timed: true, traced: true,
		traceOut: filepath.Join(t.TempDir(), "out", "trace.json")}
	for _, w := range workloads {
		o.names = append(o.names, w.name)
	}
	var out bytes.Buffer
	results, err := runSuite(&out, o, &toy)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, w := range workloads {
		res := results[w.name]
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive number of %s", w.name, m.name, v, m.unit)
			}
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
				t.Errorf("%s: per-layer %s = %+v, want a finite non-negative number", w.name, m.name, v)
			}
		}
		if v := res.Metrics["trace.overhead_ratio"].Value; v <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v, want it reported", w.name, v)
		}
	}
	// The last line of a run is the last workload's result object.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
		t.Errorf("last line %q is not the four-key result object (%v)", lines[len(lines)-1], err)
	}

	var file struct {
		Header map[string]any
		Spans  []span
	}
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, s := range file.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs || s.Parent >= i || s.Op < 1 {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
	for _, want := range []string{"graph.FromSpec", "dsync.BuildCovers", "async.New", "Sim.Run", "Sim.Reset",
		"Sim.RunSteps", "Sim.Snapshot", "Sim.Restore", "wire.OpenSnapshot", "syncrun.Run", "shard.Run"} {
		if !names[want] {
			t.Errorf("no %s span in the trace", want)
		}
	}
	if file.Header["GOMAXPROCS"] == nil {
		t.Error("trace header lacks GOMAXPROCS")
	}
}

func TestFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name) {
			t.Errorf("-list omits workload %s", w.name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !strings.Contains(out.String(), m.name) {
			t.Errorf("-list omits metric %s", m.name)
		}
	}
	for _, args := range [][]string{{"-workload", "sync-bfs,nope"}, {"-trace", "2"}, {"-seconds", "0"}} {
		if code := run(args, &out); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}

func TestAgree(t *testing.T) {
	reading := func(run, setup float64) *result {
		r := &result{Metrics: map[string]value{}}
		for _, m := range endToEnd {
			r.Metrics[m.name] = value{Value: 1}
		}
		r.Metrics["run_s"], r.Metrics["setup_s"] = value{Value: run}, value{Value: setup}
		return r
	}
	var out bytes.Buffer
	if !agree(&out, "w", []*result{reading(1, 0.010), reading(1.2, 0.025)}) {
		t.Errorf("readings within bound (set-up under the 0.02 s floor) disagree:\n%s", out.String())
	}
	noisy := []*result{reading(1, 0.5), reading(1.6, 0.5)}
	if agree(&out, "w", noisy) {
		t.Error("run_s 60% apart agrees")
	}
	// Noise only adds time: a third reading next to the best one settles it.
	if !agree(&out, "w", append(noisy, reading(1.05, 0.5))) {
		t.Error("two quiet readings out of three disagree")
	}
	failed := reading(1, 0.5)
	failed.Failed = 1
	if agree(&out, "w", []*result{reading(1, 0.5), failed}) {
		t.Error("a failed op agrees")
	}
}

// The traced synchronizer stack must behave as the untraced one: cloneable,
// so forced ModeSpec really speculates, and byte-identical in its result.
func TestTracedStackIsTransparent(t *testing.T) {
	s, err := newSyncStack(nil, seeded(toy.syncBFS, 5), 5, syncBFSBound)
	if err != nil {
		t.Fatal(err)
	}
	want := dsync.SynchronizeWithCovers(s.g, s.bound, s.adv, s.covers, s.mk)
	if err := sameOutputs(want.Outputs, s.ref.Outputs); err != nil {
		t.Fatalf("synchronized run differs from lockstep: %v", err)
	}
	if err := sameResult(s.sim(nil, async.ModeAuto).Run(), want); err != nil {
		t.Errorf("benchmark-assembled stack differs from dsync's: %v", err)
	}
	tr := newTracer()
	for _, mode := range []async.ExecutionMode{async.ModeSingle, async.ModeMulti, async.ModeSpec} {
		tr.beginOp(mode == async.ModeSingle)
		sim := s.sim(tr, mode)
		if err := sameResult(sim.Run(), want); err != nil {
			t.Errorf("traced %v run differs from untraced: %v", mode, err)
		}
		if calls, _ := tr.algo.total(); calls == 0 {
			t.Errorf("traced %v run counted no algorithm callbacks", mode)
		}
		if st := sim.SpecStats(); mode == async.ModeSpec && (st.FellBack || st.Executed == 0) {
			t.Errorf("traced spec run did not speculate: %+v", st)
		}
	}
}

func TestTracedCheckpointRoundTrips(t *testing.T) {
	c, err := newCheckpoint(nil, toy.checkpoint, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.beginOp(true)
	res, st, err := c.stepwise(tr, c.sim(tr, async.ModeAuto))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(res, c.want); err != nil {
		t.Errorf("traced stepwise run differs from the uninterrupted one: %v", err)
	}
	if len(st.frameBytes) != checkpoints || st.snapshot <= 0 || st.restore <= 0 {
		t.Errorf("stepwise run reported %+v, want %d frames and positive times", st, checkpoints)
	}
	// A frame taken under the tracer restores into an untraced engine.
	traced := c.sim(tr, async.ModeAuto)
	traced.RunSteps(c.chunk)
	frame, err := traced.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plain := core.NewSynchronizedSim(c.config(async.ModeSingle), c.mk)
	if err := plain.Restore(frame); err != nil {
		t.Fatal(err)
	}
	if err := sameResult(plain.Run(), c.want); err != nil {
		t.Errorf("untraced continuation of a traced frame differs: %v", err)
	}
}

// Exclusive times must add up: nested decorated calls are billed once.
func TestTracerExclusiveTimes(t *testing.T) {
	tr := newTracer()
	tr.beginOp(true)
	start, outer := tr.enter()
	inner, innerOuter := tr.enter()
	time.Sleep(time.Millisecond)
	tr.exit(&tr.adversary, 1, inner, innerOuter)
	tr.exit(&tr.stack, 1, start, outer)
	_, adv := tr.adversary.total()
	_, stack := tr.stack.total()
	if adv < time.Millisecond || stack < 0 || int64(adv+stack) != tr.child {
		t.Errorf("adversary %v + stack %v, want them to sum to the outer call's %v", adv, stack, tr.child)
	}
}
