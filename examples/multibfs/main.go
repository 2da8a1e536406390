// Multi-source BFS (Theorem 4.24): k replica servers sit in a data-center
// grid; every rack must find its closest replica. The complete
// asynchronous BFS terminates in Õ(D1) time — governed by the distance to
// the closest source, not the network diameter — which this example shows
// by sweeping the replica count.
package main

import (
	"fmt"
	"log"

	dsync "repro"
)

func main() {
	g := dsync.Grid(9, 9)
	fmt.Printf("grid 9x9: n=%d m=%d D=%d\n", g.N(), g.M(), g.Diameter())

	sets := [][]dsync.NodeID{
		{0},                // one replica in a corner
		{0, 80},            // two opposite corners
		{0, 8, 72, 80},     // all four corners
		{0, 8, 72, 80, 40}, // corners plus center
	}
	for _, sources := range sets {
		d1 := g.BallRadius(sources)
		res, err := dsync.AsyncBFS(g, sources, dsync.RandomDelays(3))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replicas=%d D1=%2d -> iterations=%d time=%8.1f msgs=%d\n",
			len(sources), d1, res.Iterations, res.Time, res.Msgs)
	}

	// Show a few assignments from the last run.
	res, err := dsync.AsyncBFS(g, sets[3], dsync.RandomDelays(3))
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range []int{4, 36, 44, 76} {
		if out, ok := res.Outputs[dsync.NodeID(v)].(dsync.TBFSResult); ok {
			fmt.Printf("rack %2d -> replica %2d at distance %d\n", v, out.Source, out.Dist)
		}
	}
}
