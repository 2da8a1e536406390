// Minimum spanning tree (Corollary 1.4): deterministic asynchronous MST
// with Õ(m) messages. The example computes the MST of a weighted grid
// asynchronously and verifies it against centralized Kruskal.
package main

import (
	"fmt"

	dsync "repro"
)

func main() {
	g := dsync.WithRandomWeights(dsync.Grid(5, 6), 99)
	fmt.Printf("network: n=%d m=%d (distinct random weights)\n", g.N(), g.M())

	res := dsync.AsyncMST(g, dsync.RandomDelays(7))
	fmt.Printf("async run: time=%.1f msgs=%d\n", res.Time, res.Msgs)

	// Collect the distributed answer.
	gotEdges := map[[2]dsync.NodeID]bool{}
	var leader dsync.NodeID = -1
	for v := 0; v < g.N(); v++ {
		u, p := dsync.NodeID(v), res.Outputs[dsync.NodeID(v)].(dsync.MSTResult).Parent
		if p < 0 {
			leader = u
			continue
		}
		// The tree is the parent edges.
		gotEdges[[2]dsync.NodeID{min(u, p), max(u, p)}] = true
	}

	// Verify against Kruskal.
	var gotWeight, wantWeight int64
	for i := 0; i < g.M(); i++ {
		e := g.Edge(dsync.EdgeID(i))
		if gotEdges[[2]dsync.NodeID{e.U, e.V}] {
			gotWeight += e.Weight
		}
	}
	wantWeight = g.MSTWeight()
	fmt.Printf("fragment leader: node %d\n", leader)
	fmt.Printf("edges=%d (want %d), weight=%d (Kruskal %d), correct=%v\n",
		len(gotEdges), g.N()-1, gotWeight, wantWeight,
		len(gotEdges) == g.N()-1 && gotWeight == wantWeight)
}
