package bench

import (
	"reflect"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
)

// e17FaultOverhead measures the deterministic fault plane end to end: the
// same synchronized BFS runs under a grid of crash × drop × budget
// schedules, and each row reports what the faults cost — delivery
// counters (delivered / dropped / retransmitted / undeliverable), the
// pulse watchdog's stall verdict, and time/message overhead against the
// fault-free baseline. Expected shape: generous budgets convert drops
// into bounded time overhead (delivered stays full, timeX grows with the
// drop rate); a starved budget converts them into Undeliverable
// abandonments and pulse stalls instead (the overhead columns then price
// a *partial* execution and can undershoot).
//
// Crash rows additionally price self-healing: the epoch-0 crashed set is
// fed to the layered-cover repair path, and repair(ms) vs rebuild(ms)
// compares incremental repair against a from-scratch masked build of the
// identical cover (det column asserts the two are deep-equal — the
// golden invariant from internal/cover's repair tests). reuse is the
// fraction of clusters the repair kept without rebuilding.
//
// E17 runs as one serial job: wall-clock columns would distort under
// concurrent trials. With Options.Faults set, the spec is
// appended as an extra row after the built-in grid.
func e17FaultOverhead(c *expCtx) {
	t := c.table("overhead vs fault rate; budget turns drops into delay, exhaustion into stalls; repair must equal rebuild (det)")
	t.head("graph", "faults", "delivered", "dropped", "retrans", "undeliv", "stalled", "timeX", "msgX", "repair(ms)", "rebuild(ms)", "reuse", "det")
	seed := c.seedOr(7)
	specs := []string{
		"none",
		"drop:p=0.02,budget=3",
		"drop:p=0.1,budget=3",
		"drop:p=0.1,budget=1",
		"drop:p=0.1,budget=0",
		"crash:p=0.01,budget=3",
		"crash:p=0.01,drop:p=0.1,budget=3",
		"crash:p=0.02,drop:p=0.1,budget=1",
	}
	if c.fspec != "" {
		specs = append(specs, c.fspec)
	}
	cases := []namedGraph{
		{"grid16x16", func() *graph.Graph { return graph.Grid(16, 16) }},
		{"er n=300 m=900", func() *graph.Graph { return graph.RandomConnected(300, 900, 9) }},
	}
	t.emit(c.jobs(1, func(int) []row {
		var rows []row
		for _, tc := range cases {
			g := tc.mk()
			mk := bfsMk([]graph.NodeID{0})
			sres := c.runSync(g, mk)
			bound := sres.Rounds + 2
			var base async.Result
			for i, spec := range specs {
				fs, err := async.ParseFaultSpec(spec)
				if err != nil {
					panic(err) // unreachable: the grid specs are literals, c.fspec is pre-validated by Run
				}
				if fs != nil && fs.Seed == 0 {
					fs.Seed = seed
				}
				adv := async.WithFaults(async.SeededRandom{Seed: seed}, fs)
				res, rep := core.SynchronizeWatched(c.coreCfg(g, bound, adv), mk)
				if i == 0 {
					base = res
				}
				delivered := res.Msgs - res.Undeliverable
				timeX := res.Time / base.Time
				msgX := float64(res.Msgs) / float64(base.Msgs)
				repairMs, rebuildMs, reuse, det := e17RepairCost(g, fs)
				rows = append(rows, row{
					cols: []any{tc.name, spec, delivered, res.Dropped, res.Retrans, res.Undeliverable,
						rep.IsStalled(), timeX, msgX, repairMs, rebuildMs, reuse, det},
					rec: record{"graph": tc.name, "faults": spec, "n": g.N(), "m": g.M(),
						"delivered": delivered, "dropped": res.Dropped, "retrans": res.Retrans,
						"undeliverable": res.Undeliverable, "stalledNodes": rep.StalledCount,
						"stalled": rep.IsStalled(), "time": res.Time, "msgs": res.Msgs,
						"timeOverhead": timeX, "msgOverhead": msgX,
						"repairMs": repairMs, "rebuildMs": rebuildMs, "clusterReuse": reuse,
						"repairDeterministic": det},
				})
			}
		}
		return rows
	}))
}

// e17RepairCost prices self-healing for one schedule: incremental repair
// of the fault-free layered cover against a from-scratch masked rebuild,
// for the schedule's epoch-0 crashed set. Schedules with no crash faults
// have nothing to heal and report zeros with reuse 1 (the repair path
// short-circuits to the base cover).
func e17RepairCost(g *graph.Graph, fs *async.FaultSchedule) (repairMs, rebuildMs, reuse float64, det bool) {
	const d = 8 // layered radii 1,2,4,8 — the synchronizer's small levels
	if !fs.Active() || fs.CrashP == 0 {
		return 0, 0, 1, true
	}
	faulted := fs.CrashedSet(g.N(), 0)
	if len(faulted) == 0 {
		return 0, 0, 1, true
	}
	base := cover.BuildLayered(g, d)
	t0 := time.Now()
	repaired, stats := cover.RepairLayered(base, faulted)
	repairMs = float64(time.Since(t0).Microseconds()) / 1000
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	for _, v := range faulted {
		alive[v] = false
	}
	t1 := time.Now()
	rebuilt := cover.BuildLayeredMasked(g, d, alive)
	rebuildMs = float64(time.Since(t1).Microseconds()) / 1000
	det = reflect.DeepEqual(repaired, rebuilt)
	var total, reused int
	for _, st := range stats {
		total += st.Reused + st.Dirty
		reused += st.Reused
	}
	if total > 0 {
		reuse = float64(reused) / float64(total)
	}
	return repairMs, rebuildMs, reuse, det
}
