package bench

// e16Footprint measures the resident memory of the three planes a
// ten-million-node run lives on: the CSR graph itself, the asynchronous
// engine after one completed flood (so all lazily allocated per-link state
// is present), and the lockstep runner after one completed wave. Every
// value is retained heap bytes after GC settles — what stays resident, not
// allocation churn — and the normalized columns (graph and async bytes per
// directed link, lockstep bytes per node) must stay flat as n grows: any
// O(n·diameter) scratch or per-link regression shows up as a rising slope.
//
// The built-in ladder spans 4k–80k nodes across all three implicit
// generators; Options.Graph (cmd/syncbench -graph) appends one more row,
// e.g. grid3d:100x100x100 for a million-node entry.
//
// E16 runs as one serial job: the probe reads process-global heap state,
// so concurrent trials would bleed into each other's baselines. The byte
// counts are stable in practice but depend on the runtime's size classes,
// so they are pinned loosely by footprint_test.go rather than replayed
// byte-identically here.
func e16Footprint(c *expCtx) {
	t := c.table("retained heap bytes after GC; engines measured after one completed flood; per-link and per-node columns must stay flat as n grows.")
	t.head("graph", "n", "links", "graphKB", "gB/link", "asyncKB", "aB/link", "syncKB", "sB/node")
	specs := []string{
		"grid3d:16x16x16",
		"grid3d:32x32x32",
		"grid3d:40x40x50",
		"pa:n=50000,m=4,seed=7",
		"ring:k=4000,c=8",
	}
	if c.gspec != "" {
		specs = append(specs, c.gspec)
	}
	t.emit(c.jobs(1, func(int) []row {
		rows := make([]row, 0, len(specs))
		for _, spec := range specs {
			gBytes, err := graphRetainedBytes(spec)
			if err != nil {
				// Run validated Options.Graph and the built-ins are static,
				// so a failure here is a harness bug.
				panic("bench: E16 spec failed: " + err.Error())
			}
			g := c.custom
			if spec != c.gspec || g == nil {
				g = mustSpec(spec)
			}
			aBytes := asyncRetainedBytes(g)
			sBytes := syncRetainedBytes(g)
			n, links := g.N(), g.Links()
			gPerLink := float64(gBytes) / float64(links)
			aPerLink := float64(aBytes) / float64(links)
			sPerNode := float64(sBytes) / float64(n)
			rows = append(rows, row{
				cols: []any{spec, n, links,
					float64(gBytes) / 1024, gPerLink,
					float64(aBytes) / 1024, aPerLink,
					float64(sBytes) / 1024, sPerNode},
				rec: record{"graph": spec, "n": n, "links": links,
					"graphBytes": gBytes, "graphBytesPerLink": gPerLink,
					"asyncBytes": aBytes, "asyncBytesPerLink": aPerLink,
					"syncBytes": sBytes, "syncBytesPerNode": sPerNode},
			})
		}
		return rows
	}))
}
