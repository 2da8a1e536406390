// Incremental cover repair. A node fault invalidates only the clusters
// whose d-expansion BFS regions the fault can have touched; every other
// cluster of the pre-fault cover is provably byte-identical in a
// from-scratch masked rebuild and is reused as-is.
//
// The dirty certificate: a cluster's masked expansion explores exactly
// the nodes within masked distance D of its seed set, and examines no
// edge incident to any node farther than D. One bounded multi-source BFS
// from the faulted nodes — over the *pre-fault* alive mask, to depth D —
// therefore reaches a cluster's seed iff the fault lies inside that
// cluster's explored region (including the case where the fault *is* a
// seed, at distance 0). Unreached clusters keep their seed set, their
// BFS frontier, and their spliced tree unchanged; reached clusters are
// re-expanded under the new mask by the same code path a from-scratch
// build runs, so golden equality holds by construction.
package cover

import (
	"repro/internal/decomp"
	"repro/internal/graph"
)

// RepairStats accounts one repair call.
type RepairStats struct {
	// Faulted counts the newly-dead nodes actually applied (nodes that
	// were already dead, and duplicates, are skipped).
	Faulted int
	// Dirty counts clusters whose explored region touched a fault
	// (Dirty = Rebuilt + Dropped).
	Dirty int
	// Reused counts clean clusters carried over without rebuilding.
	Reused int
	// Rebuilt counts dirty clusters re-expanded under the new mask.
	Rebuilt int
	// Dropped counts clusters whose last alive seed died.
	Dropped int
}

// repair returns the cover of base's node set with the given nodes
// additionally faulted, reusing every cluster whose region no fault
// touched. The result equals buildMasked over the combined mask; base is
// not mutated. When every listed node is already dead, base itself is
// returned.
func repair(base *Cover, faulted []graph.NodeID) (*Cover, RepairStats) {
	g := base.g
	if g == nil {
		panic("cover: Repair on a cover without retained build state")
	}
	var st RepairStats
	newAlive := make([]bool, g.N())
	if base.alive == nil {
		for i := range newAlive {
			newAlive[i] = true
		}
	} else {
		copy(newAlive, base.alive)
	}
	eff := make([]graph.NodeID, 0, len(faulted))
	for _, v := range faulted {
		if newAlive[v] {
			newAlive[v] = false
			eff = append(eff, v)
		}
	}
	st.Faulted = len(eff)
	if len(eff) == 0 {
		st.Reused = len(base.Clusters)
		return base, st
	}

	// Dirty-region sweep: one BFS over the pre-fault mask. The faulted
	// nodes themselves were alive under it, so they may seed and relay.
	dirty := decomp.NewBFSScratch(g)
	dirty.Run(eff, base.D, base.alive)

	out := &Cover{D: base.D, g: g, dec: base.dec, alive: newAlive}
	ex := newExpander(g, base.D)
	cursor := 0
	for _, colorClusters := range base.dec.Colors {
		for _, dc := range colorClusters {
			var old *Cluster
			if cursor < len(base.Clusters) && base.Clusters[cursor].base == dc {
				old = base.Clusters[cursor]
				cursor++
			}
			if old == nil {
				// Already dropped in base; masks only shrink, so it
				// stays dropped.
				continue
			}
			clean := true
			for _, v := range old.Seeds {
				if dirty.Visited(v) {
					clean = false
					break
				}
			}
			if clean {
				st.Reused++
				cp := *old
				cp.ID = ClusterID(len(out.Clusters))
				out.Clusters = append(out.Clusters, &cp)
				continue
			}
			st.Dirty++
			seeds := aliveSeeds(old.Seeds, newAlive)
			if len(seeds) == 0 {
				st.Dropped++
				continue
			}
			cl := ex.expand(dc, newAlive, seeds)
			cl.ID = ClusterID(len(out.Clusters))
			out.Clusters = append(out.Clusters, cl)
			st.Rebuilt++
		}
	}
	out.reindex(g.N())
	return out, st
}

// RepairLayered repairs every level of a layered cover (see repair).
func RepairLayered(base *Layered, faulted []graph.NodeID) (*Layered, []RepairStats) {
	out := &Layered{Levels: make([]*Cover, len(base.Levels))}
	stats := make([]RepairStats, len(base.Levels))
	for j, cov := range base.Levels {
		out.Levels[j], stats[j] = repair(cov, faulted)
	}
	return out, stats
}
