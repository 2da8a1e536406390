package graph

import "fmt"

// This file holds buildCSR, the one graph builder every generator emits
// through, and the structure-implicit generators: topology families whose
// node count, edge count, and per-node degree are known in closed form, so
// the CSR arrays are emitted directly with exact preallocation — no
// intermediate adjacency lists, no maps. These are the generators that
// reach the ten-million-node scale; they validate their size against
// maxNodes / maxEdges and return an error BEFORE allocating anything.
//
// EdgeIDs follow the enumeration order of the generator; adjacency rows
// are ascending by neighbor id. The golden tests pin every generator's CSR
// byte-identical (same EdgeIDs, LinkIDs, rev and edge-link tables) against a
// naive materializing builder.

// buildCSR assembles a graph from one exact edge enumeration. n and m are
// the exact node and edge counts (validated against the 32-bit id space
// before any allocation); edges must call emit exactly m times in
// canonical EdgeID order. When lex is true the enumeration is promised to
// be lexicographic — ascending u, then ascending v within u, with u < v —
// which makes the scattered adjacency rows sorted for free; otherwise each
// row is sorted afterwards. Duplicate edges are caught by a final
// adjacent-equal scan.
func buildCSR(n, m int64, lex bool, edges func(emit func(u, v NodeID))) (*Graph, error) {
	if n < 0 || n > maxNodes {
		return nil, fmt.Errorf("graph: node count %d outside [0, %d] (32-bit NodeID space)", n, int64(maxNodes))
	}
	if m < 0 || m > maxEdges {
		return nil, fmt.Errorf("graph: edge count %d outside [0, %d] (2m directed links must fit 32-bit LinkID space)", m, int64(maxEdges))
	}
	g := &Graph{n: int(n)}
	g.off = make([]int32, n+1)
	// Pass 1: park each edge's endpoints in rev, which pass 3 overwrites,
	// and count degrees (off holds counts, shifted one slot right so the
	// prefix sum can run in place).
	g.rev = make([]LinkID, 0, 2*m)
	edges(func(u, v NodeID) {
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		if u < 0 || v < 0 || int64(u) >= n || int64(v) >= n {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
		}
		if u > v {
			u, v = v, u
		}
		g.rev = append(g.rev, LinkID(u), LinkID(v))
		g.off[u+1]++
		g.off[v+1]++
	})
	if int64(len(g.rev)) != 2*m {
		panic(fmt.Sprintf("graph: generator emitted %d edges, promised %d", len(g.rev)/2, m))
	}
	for v := int64(0); v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	// Pass 2: scatter both directions. cursor[v] walks v's row.
	g.flat = make([]Neighbor, 2*m)
	cursor := make([]int32, n)
	copy(cursor, g.off[:n])
	for e := int64(0); e < m; e++ {
		u, v := NodeID(g.rev[2*e]), NodeID(g.rev[2*e+1])
		g.flat[cursor[u]] = Neighbor{Node: v, Edge: EdgeID(e)}
		cursor[u]++
		g.flat[cursor[v]] = Neighbor{Node: u, Edge: EdgeID(e)}
		cursor[v]++
	}
	if !lex {
		for v := int64(0); v < n; v++ {
			sortNeighborsByNode(g.flat[g.off[v]:g.off[v+1]])
		}
	}
	// Pass 3: walk the rows in ascending source order. An edge's first link
	// leaves its smaller endpoint and goes in edgeLink; its second is that
	// link's reverse. A duplicate edge shows as two equal targets in a row.
	g.edgeLink = make([]LinkID, m)
	for v := int64(0); v < n; v++ {
		for l := g.off[v]; l < g.off[v+1]; l++ {
			nb := g.flat[l]
			if l > g.off[v] && nb.Node <= g.flat[l-1].Node {
				if nb.Node == g.flat[l-1].Node {
					panic(fmt.Sprintf("graph: parallel edge {%d,%d}", v, nb.Node))
				}
				panic(fmt.Sprintf("graph: generator emitted unsorted row at node %d", v))
			}
			if int64(nb.Node) > v {
				g.edgeLink[nb.Edge] = LinkID(l)
			} else {
				first := g.edgeLink[nb.Edge]
				g.rev[l], g.rev[first] = first, LinkID(l)
			}
		}
	}
	return g, nil
}

// sortNeighborsByNode is an allocation-free sift-down heapsort of one
// adjacency row by neighbor id (rows built from a non-lexicographic edge
// enumeration arrive unsorted; sort.Slice would allocate a closure per
// row, which the generator alloc pins forbid at scale).
func sortNeighborsByNode(row []Neighbor) {
	n := len(row)
	for root := n/2 - 1; root >= 0; root-- {
		siftNeighbor(row, root, n)
	}
	for end := n - 1; end > 0; end-- {
		row[0], row[end] = row[end], row[0]
		siftNeighbor(row, 0, end)
	}
}

func siftNeighbor(row []Neighbor, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && row[child+1].Node > row[child].Node {
			child++
		}
		if row[root].Node >= row[child].Node {
			return
		}
		row[root], row[child] = row[child], row[root]
		root = child
	}
}

// grid3D returns the x×y×z axis-aligned grid: node (ix,iy,iz) has id
// (ix·y + iy)·z + iz and is adjacent to the ±1 lattice neighbors in each
// dimension. Diameter (x-1)+(y-1)+(z-1). The CSR is emitted implicitly:
// construction retains only the CSR arrays.
func grid3D(x, y, z int) (*Graph, error) {
	if x < 1 || y < 1 || z < 1 {
		return nil, fmt.Errorf("graph: Grid3D needs positive dimensions, got %d×%d×%d", x, y, z)
	}
	// Overflow-safe size computation: each factor fits an int64 product of
	// two, so guard the chain step by step.
	n := int64(x) * int64(y)
	if n > maxNodes {
		return nil, fmt.Errorf("graph: Grid3D %d×%d×%d exceeds MaxNodes (%d, the 32-bit NodeID space)", x, y, z, int64(maxNodes))
	}
	n *= int64(z)
	if n > maxNodes {
		return nil, fmt.Errorf("graph: Grid3D %d×%d×%d exceeds MaxNodes (%d, the 32-bit NodeID space)", x, y, z, int64(maxNodes))
	}
	m := int64(x-1)*int64(y)*int64(z) + int64(x)*int64(y-1)*int64(z) + int64(x)*int64(y)*int64(z-1)
	return buildCSR(n, m, true, func(emit func(u, v NodeID)) {
		u := int64(0)
		for ix := 0; ix < x; ix++ {
			for iy := 0; iy < y; iy++ {
				for iz := 0; iz < z; iz++ {
					if iz+1 < z {
						emit(NodeID(u), NodeID(u+1))
					}
					if iy+1 < y {
						emit(NodeID(u), NodeID(u+int64(z)))
					}
					if ix+1 < x {
						emit(NodeID(u), NodeID(u+int64(y)*int64(z)))
					}
					u++
				}
			}
		}
	})
}

// powerLaw returns a deterministic Barabási–Albert preferential-attachment
// graph: a seed clique on m+1 nodes, then each node v = m+1..n-1 attaches
// to m distinct earlier nodes sampled proportionally to degree (by drawing
// uniformly from the running edge-endpoint list, resampling batch
// duplicates). Degree distribution is power-law with heavy-tailed hubs;
// diameter O(log n). Deterministic in seed.
func powerLaw(n, m int, seed uint64) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("graph: PowerLaw needs m >= 1, got %d", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("graph: PowerLaw needs n >= m+1 (n=%d, m=%d)", n, m)
	}
	if int64(n) > maxNodes {
		return nil, fmt.Errorf("graph: PowerLaw n=%d exceeds MaxNodes (%d, the 32-bit NodeID space)", n, int64(maxNodes))
	}
	edges := int64(m)*int64(m+1)/2 + int64(n-m-1)*int64(m)
	if edges > maxEdges {
		return nil, fmt.Errorf("graph: PowerLaw n=%d m=%d needs %d edges, exceeding MaxEdges (%d, the 32-bit LinkID space)", n, m, edges, int64(maxEdges))
	}
	return buildCSR(int64(n), edges, false, func(emit func(u, v NodeID)) {
		powerLawEdges(n, m, seed, emit)
	})
}

// powerLawEdges enumerates the preferential-attachment edge sequence in
// generation order. Factored out so the golden test's naive materialized
// builder replays the exact same sampling.
func powerLawEdges(n, m int, seed uint64, emit func(u, v NodeID)) {
	r := newRNG(seed)
	// ends is the flattened endpoint multiset: two entries per edge, so a
	// uniform draw lands on a node with probability proportional to degree.
	edges := int64(m)*int64(m+1)/2 + int64(n-m-1)*int64(m)
	ends := make([]NodeID, 0, 2*edges)
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			emit(NodeID(i), NodeID(j))
			ends = append(ends, NodeID(i), NodeID(j))
		}
	}
	batch := make([]NodeID, m)
	for v := m + 1; v < n; v++ {
		for picked := 0; picked < m; {
			t := ends[r.Intn(len(ends))]
			if stamp[t] == int32(v) {
				continue // already chosen in this batch; resample
			}
			stamp[t] = int32(v)
			batch[picked] = t
			picked++
		}
		// Emit in sampling order; endpoints join the multiset only after
		// the whole batch, so a node's new edges don't bias its own batch.
		for _, t := range batch {
			emit(t, NodeID(v))
			ends = append(ends, t, NodeID(v))
		}
	}
}

// ringOfCliques returns k cliques of c nodes each (clique i owns the id
// range [i·c, (i+1)·c)), with one road edge from each clique's last node
// to the next clique's first node, closing into a ring. Road-like: locally
// dense, globally a long cycle — diameter Θ(k). Requires k >= 3 (a 2-ring
// would double the connecting edge).
func ringOfCliques(k, c int) (*Graph, error) {
	if k < 3 || c < 1 {
		return nil, fmt.Errorf("graph: RingOfCliques needs k >= 3 cliques of c >= 1 nodes, got k=%d c=%d", k, c)
	}
	n := int64(k) * int64(c)
	if n > maxNodes {
		return nil, fmt.Errorf("graph: RingOfCliques k=%d c=%d exceeds MaxNodes (%d, the 32-bit NodeID space)", k, c, int64(maxNodes))
	}
	m := int64(k)*int64(c)*int64(c-1)/2 + int64(k)
	if m > maxEdges {
		return nil, fmt.Errorf("graph: RingOfCliques k=%d c=%d needs %d edges, exceeding MaxEdges (%d, the 32-bit LinkID space)", k, c, m, int64(maxEdges))
	}
	return buildCSR(n, m, true, func(emit func(u, v NodeID)) {
		for u := int64(0); u < n; u++ {
			i, pos := u/int64(c), u%int64(c)
			for w := u + 1; w < (i+1)*int64(c); w++ {
				emit(NodeID(u), NodeID(w))
			}
			if pos == int64(c-1) && i < int64(k-1) {
				emit(NodeID(u), NodeID(u+1)) // road to the next clique
			}
			if u == 0 {
				emit(NodeID(0), NodeID(n-1)) // ring-closing road
			}
		}
	})
}
