package bench

import (
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/async"
	"repro/internal/outval"
	"repro/internal/shard"
)

// e18SnapshotOverheads prices the state plane: the same flood runs
// uninterrupted (base) and checkpointed at three interval fractions of its
// event count, reporting frame size, serialization time per checkpoint,
// restore time, and the checkpointed run's wall-clock ratio. det asserts
// the tentpole invariant on every row — the run restored from the last
// checkpoint finishes byte-identical to the uninterrupted run, so the
// overhead columns price observation, never perturbation. Expected shape:
// frameMB tracks engine state (roughly linear in links), save cost is
// linear in frame size, and timeX decays toward 1 as the interval grows.
//
// Options.Graph appends one more case (e.g. a million-node row) and
// Options.SnapshotEvery appends an extra interval to every case.
// Options.Resume appends a final row that resumes a real checkpoint file
// through the sharded coordinator (in-process workers), pricing a full
// restore-to-completion. Like E17 this runs as one serial job: wall-clock
// columns would distort under concurrent trials.
func e18SnapshotOverheads(c *expCtx) {
	t := c.table("checkpoint cost vs interval; det requires restore-and-finish byte-identical to the uninterrupted run")
	t.head("graph", "n", "interval", "snaps", "frameMB", "save(ms/snap)", "restore(ms)", "run(ms)", "base(ms)", "timeX", "det")
	specs := []string{"grid:40x40", "er:n=500,m=1500,seed=3"}
	if c.gspec != "" {
		specs = append(specs, c.gspec)
	}
	// The shard's flood from node 0: a single codec'd wave, so the engine
	// planes (queue, links, outputs, counters) dominate the state a snapshot
	// serializes, and the overhead priced is the state plane's, not the
	// workload's.
	mk, err := shard.NewWorkload("flood", shard.WorkloadConfig{})
	if err != nil {
		panic("bench: E18: " + err.Error())
	}
	t.emit(c.jobs(1, func(int) []row {
		var rows []row
		for _, spec := range specs {
			g := c.custom
			if spec != c.gspec || g == nil {
				g = mustSpec(spec)
			}
			adv := c.adv(11)

			t0 := time.Now()
			base := async.New(g, adv, mk)
			for !base.RunSteps(1 << 30) {
			}
			baseRes := base.FinishResult()
			baseMs := float64(time.Since(t0)) / 1e6
			// Event-count proxy: every message costs a delivery and an ack
			// event; it only has to land intervals in the right decade.
			est := baseRes.Msgs + baseRes.Acks

			intervals := []uint64{est/8 + 1, est/2 + 1, est + 1}
			if c.snapEvery > 0 {
				intervals = append(intervals, c.snapEvery)
			}
			for _, iv := range intervals {
				var (
					snaps  uint64
					saveNs int64
					last   []byte
				)
				t0 = time.Now()
				sim := async.New(g, adv, mk)
				for {
					done := sim.RunSteps(iv)
					s0 := time.Now()
					snap, err := sim.Snapshot()
					saveNs += int64(time.Since(s0))
					if err != nil {
						panic("bench: E18 snapshot failed: " + err.Error())
					}
					snaps++
					last = snap
					if done {
						break
					}
				}
				res := sim.FinishResult()
				runMs := float64(time.Since(t0)) / 1e6

				r0 := time.Now()
				cont := async.New(g, adv, mk)
				if err := cont.Restore(last); err != nil {
					panic("bench: E18 restore failed: " + err.Error())
				}
				restoreMs := float64(time.Since(r0)) / 1e6
				det := reflect.DeepEqual(res, baseRes) &&
					reflect.DeepEqual(cont.Run(), baseRes)

				frameMB := float64(len(last)) / (1 << 20)
				savePer := float64(saveNs) / 1e6 / float64(snaps)
				timeX := runMs / baseMs
				rows = append(rows, row{
					cols: []any{spec, g.N(), iv, snaps, frameMB, savePer, restoreMs, runMs, baseMs, timeX, det},
					rec: record{"graph": spec, "n": g.N(), "interval": iv, "snaps": snaps,
						"frameBytes": len(last), "saveMsPerSnap": savePer, "restoreMs": restoreMs,
						"runMs": runMs, "baseMs": baseMs, "timeX": timeX, "det": det},
				})
			}
		}
		if c.resume != "" {
			t0 := time.Now()
			rep, err := shard.Run(shard.Config{ResumeFrom: c.resume, Launch: shard.LaunchInProc})
			wallMs := float64(time.Since(t0)) / 1e6
			name := "resume:" + filepath.Base(c.resume)
			if err != nil {
				rows = append(rows, row{
					cols: []any{name, "-", "-", "-", "-", "-", "-", wallMs, "-", "-", false},
					rec:  record{"graph": name, "error": err.Error(), "det": false},
				})
			} else {
				rows = append(rows, row{
					cols: []any{name, outval.Count(rep.Result.OutSet), "-", "-", "-", "-", wallMs, wallMs, "-", "-", true},
					rec: record{"graph": name, "outputs": outval.Count(rep.Result.OutSet),
						"shards": rep.Stats.Shards, "windows": rep.Stats.Windows,
						"restoreMs": wallMs, "det": true},
				})
			}
		}
		return rows
	}))
}
