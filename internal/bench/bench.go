// Package bench implements the experiment harness: one function per
// experiment in DESIGN.md's index (E1–E12, E16–E18), each regenerating
// its table of measured time/message complexities against the paper's
// predicted shape.
// Root bench_test.go and cmd/syncbench both call into this package.
//
// The harness is job-based: every experiment enumerates its independent
// trials (graph × parameter × adversary) as jobs, the runner executes them
// on a worker pool of Options.Workers goroutines, and results merge back in
// job order — so the emitted tables are byte-identical whether the run is
// serial or parallel. Each table row additionally produces a structured
// record; Options.JSON switches the output to one JSON document carrying
// every record, which is what cmd/syncbench -json emits.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// record is one structured per-row record: column name -> raw (unformatted)
// value. encoding/json sorts map keys, so marshaling is deterministic.
type record map[string]any

// row pairs one table row with its structured record.
type row struct {
	cols []any
	rec  record
}

// experiment is one registry entry. The registry slice is the single
// ordered source of truth: Run, allIDs and List drive off it.
// Ids are stable names, not positions: retired experiments leave gaps.
type experiment struct {
	id    string
	title string
	run   func(*expCtx)
}

var experiments = []experiment{
	{"E1", "synchronizer overheads (sync BFS workload)", e1SynchronizerOverheads},
	{"E2", "async BFS time vs diameter (Thm 4.23)", e2BFSTimeVsD},
	{"E3", "async BFS messages vs edge count (Thm 4.23)", e3BFSMessagesVsM},
	{"E4", "multi-source BFS time vs D1 (Thm 4.24)", e4MultiSourceD1},
	{"E5", "async deterministic leader election (Cor 1.3)", e5LeaderElection},
	{"E6", "async deterministic MST (Cor 1.4)", e6MST},
	{"E7", "registration congestion — wave (§3.2) vs naive root-routing ([AP90a])", e7RegistrationCongestion},
	{"E8", "α message blow-up vs main synchronizer (App. A)", e8AlphaBlowup},
	{"E9", "delay-adversary robustness (worst-case model, §1.1)", e9AdversaryRobustness},
	{"E10", "sparse cover quality (Thm 4.21)", e10CoverQuality},
	{"E11", "link multiplexing & stage priorities (Cor 2.3 / Lem 2.5)", e11StagePipelining},
	{"E12", "gather-in-covers cost (Thm 3.1)", e12GatherCost},
	{"E16", "retained footprint vs n (graph plane + engine state)", e16Footprint},
	{"E17", "fault-plane overhead vs fault rate (crash × drop × budget)", e17FaultOverhead},
	{"E18", "state-plane snapshot overhead (frame bytes + time vs interval)", e18SnapshotOverheads},
}

func byID(id string) *experiment {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i]
		}
	}
	return nil
}

// Info describes one experiment for listings.
type Info struct {
	ID    string
	Title string
}

// List returns the experiments in registry order.
func List() []Info {
	out := make([]Info, len(experiments))
	for i, e := range experiments {
		out[i] = Info{ID: e.id, Title: e.title}
	}
	return out
}

// allIDs returns every experiment id in registry order.
func allIDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// Options configures a harness run.
type Options struct {
	// Workers is the job pool size; <= 1 runs every trial serially. Tables
	// and records are byte-identical across worker counts.
	Workers int
	// JSON emits one JSON document of structured records instead of text
	// tables.
	JSON bool
	// Seed overrides every experiment's default delay-adversary seed
	// (cmd/syncbench -seed). Zero keeps the per-experiment defaults, which
	// reproduce the published tables. Experiments that deliberately use a
	// degenerate adversary (Fixed delays) are unaffected.
	Seed uint64
	// Mode selects the lockstep execution mode for experiments that run a
	// synchronous baseline (cmd/syncbench -mode). The default is ModeAuto;
	// results are byte-identical across modes, so this is a wall-clock
	// knob.
	Mode syncrun.ExecutionMode
	// AsyncMode selects the asynchronous engine's execution mode for every
	// experiment that runs a simulation (cmd/syncbench -mode sets both
	// engines). Also byte-identical across modes.
	AsyncMode async.ExecutionMode
	// Graph is an optional extra topology, as a graph.FromSpec string
	// (cmd/syncbench -graph, e.g. "grid3d:100x100x100"). E16 appends it as
	// an extra footprint row and E18 as an extra checkpointed case, after
	// their built-in cases — a million-node row without every default run
	// paying for it. Other experiments ignore it. Invalid specs fail Run
	// before anything runs.
	Graph string
	// Faults is an optional fault-schedule spec (async.ParseFaultSpec,
	// e.g. "crash:p=0.01,drop:p=0.05,budget=3,seed=7"; cmd/syncbench
	// -faults). When set, every experiment's delay adversary is wrapped in
	// the schedule — tables then measure the algorithms under message loss
	// and crash blackouts, not the published fault-free shapes — and E17
	// appends the spec as an extra row after its built-in schedule grid.
	// Invalid specs fail Run before anything runs.
	Faults string
	// SnapshotEvery, when > 0, appends an extra checkpoint interval to
	// every E18 case after its built-in sweep (cmd/syncbench
	// -snapshot-every), the same extra-row pattern as Graph and Faults.
	// Other experiments ignore it.
	SnapshotEvery uint64
	// Resume is an optional checkpoint file written by a sharded run
	// (shardsim -snapshot-path; cmd/syncbench -resume). E18 appends a
	// final row that resumes it through the sharded coordinator with
	// in-process workers, pricing restore-to-completion on a real file.
	// Missing or corrupt files fail Run before anything runs; errors wrap
	// the cause, so wire.ErrSnapVersion stays visible to errors.Is.
	Resume string
}

// expRecords is the JSON shape of one experiment's output.
type expRecords struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Rows  []record `json:"rows"`
}

// jsonDoc is the top-level JSON document of a -json run.
type jsonDoc struct {
	Schema      string       `json:"schema"`
	Experiments []expRecords `json:"experiments"`
}

// expCtx is the per-run context handed to each experiment: table output,
// worker pool, run-wide option overrides, and the record accumulator.
type expCtx struct {
	w       io.Writer
	workers int
	seed    uint64
	mode    syncrun.ExecutionMode
	amode   async.ExecutionMode
	// gspec/custom carry the Options.Graph extra topology: the spec string
	// (used as the row label and re-built by E16's footprint probe) and the
	// graph itself, built once up front so E16 and E18 share it.
	gspec  string
	custom *graph.Graph
	// faults/fspec carry Options.Faults: the parsed schedule wrapped
	// around every adversary c.adv hands out, and the raw spec string E17
	// uses as its extra-row label.
	faults *async.FaultSchedule
	fspec  string
	// snapEvery/resume carry Options.SnapshotEvery/Options.Resume: E18's
	// extra checkpoint interval and its optional real-file resume row.
	snapEvery uint64
	resume    string
	cur       *expRecords
	exps      []expRecords
}

// seedOr returns the run-wide adversary-seed override, or the
// experiment's default when none was given.
func (c *expCtx) seedOr(def uint64) uint64 {
	if c.seed != 0 {
		return c.seed
	}
	return def
}

// adv returns the seeded random delay adversary an experiment should use,
// honoring the -seed override and wrapping in the run-wide fault
// schedule when one was given.
func (c *expCtx) adv(def uint64) async.Adversary {
	return async.WithFaults(async.SeededRandom{Seed: c.seedOr(def)}, c.faults)
}

// runSync executes a lockstep baseline in the selected execution mode
// (results are mode-independent; only wall-clock changes).
func (c *expCtx) runSync(g *graph.Graph, mk func(graph.NodeID) syncrun.Handler) syncrun.Result {
	return syncrun.New(g, mk).WithMode(c.mode).Run()
}

// coreCfg assembles a synchronizer config honoring the run-wide async
// execution mode.
func (c *expCtx) coreCfg(g *graph.Graph, bound int, adv async.Adversary) core.Config {
	return core.Config{Graph: g, Bound: bound, Adversary: adv, Mode: c.amode}
}

// table accumulates aligned rows.
type table struct {
	w   *tabwriter.Writer
	ctx *expCtx
}

// table opens the experiment's table, printing the registry title plus the
// experiment's expectation note.
func (c *expCtx) table(note string) *table {
	fmt.Fprintf(c.w, "\n=== %s: %s ===\n", c.cur.ID, c.cur.Title)
	if note != "" {
		fmt.Fprintf(c.w, "%s\n", note)
	}
	return &table{w: tabwriter.NewWriter(c.w, 2, 4, 2, ' ', 0), ctx: c}
}

// head writes the column-header row.
func (t *table) head(cols ...any) { t.row(cols...) }

func (t *table) row(cols ...any) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.w, "%.1f", v)
		default:
			fmt.Fprintf(t.w, "%v", v)
		}
	}
	fmt.Fprintln(t.w)
}

// emit writes the merged job rows — table lines plus structured records —
// and flushes the table.
func (t *table) emit(rows []row) {
	for _, r := range rows {
		t.row(r.cols...)
		if r.rec != nil {
			t.ctx.cur.Rows = append(t.ctx.cur.Rows, r.rec)
		}
	}
	t.w.Flush()
}

// jobs executes n independent trials on the worker pool and returns their
// rows merged in job order, so output is identical to a serial run.
func (c *expCtx) jobs(n int, fn func(i int) []row) []row {
	out := make([][]row, n)
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var flat []row
	for _, rs := range out {
		flat = append(flat, rs...)
	}
	return flat
}

// Run executes the given experiments (nil or empty = all) with the given
// options, writing tables — or, with Options.JSON, one JSON document — to
// w. It errors on unknown ids without running anything.
func Run(w io.Writer, ids []string, opts Options) error {
	if len(ids) == 0 {
		ids = allIDs()
	}
	for _, id := range ids {
		if byID(id) == nil {
			return fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(allIDs(), ","))
		}
	}
	tw := w
	if opts.JSON {
		tw = io.Discard
	}
	fs, err := async.ParseFaultSpec(opts.Faults)
	if err != nil {
		return err
	}
	if opts.Resume != "" {
		data, err := os.ReadFile(opts.Resume)
		if err != nil {
			return err
		}
		if _, err := wire.OpenSnapshot(data); err != nil {
			return fmt.Errorf("resume %s: %w", opts.Resume, err)
		}
	}
	c := &expCtx{w: tw, workers: opts.Workers, seed: opts.Seed, mode: opts.Mode, amode: opts.AsyncMode, gspec: opts.Graph, faults: fs, fspec: opts.Faults, snapEvery: opts.SnapshotEvery, resume: opts.Resume}
	if opts.Graph != "" {
		g, err := graph.FromSpec(opts.Graph)
		if err != nil {
			return err
		}
		c.custom = g
	}
	for _, id := range ids {
		e := byID(id)
		c.exps = append(c.exps, expRecords{ID: e.id, Title: e.title})
		c.cur = &c.exps[len(c.exps)-1]
		e.run(c)
	}
	if opts.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonDoc{Schema: "syncbench/v1", Experiments: c.exps})
	}
	return nil
}
