package graph

import "fmt"

// The generators are all deterministic: random families take an explicit
// seed and use the local xorshift PRNG below, so every experiment is
// reproducible bit-for-bit without pulling in math/rand global state.

// rng is a small deterministic xorshift64* generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a uniform int in [0, n).
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.next() % uint64(n))
}

// must unwraps a builder result for the generators whose bad parameters
// are programmer errors (FromSpec validates spec input before calling them).
func must(g *Graph, err error) *Graph {
	if err != nil {
		panic(err.Error())
	}
	return g
}

// enumerate builds a classic family on n nodes: one pass over the edge
// enumeration counts it, a second emits it through buildCSR. lex promises
// a lexicographic enumeration (see buildCSR).
func enumerate(n int, lex bool, edges func(emit func(u, v NodeID))) *Graph {
	m := int64(0)
	edges(func(NodeID, NodeID) { m++ })
	return must(buildCSR(int64(n), m, lex, edges))
}

// Path returns the path graph 0-1-2-…-(n-1). Diameter n-1.
func Path(n int) *Graph {
	return enumerate(n, true, func(emit func(u, v NodeID)) {
		for i := 0; i+1 < n; i++ {
			emit(NodeID(i), NodeID(i+1))
		}
	})
}

// Cycle returns the n-cycle. Diameter floor(n/2). Requires n >= 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle needs n >= 3, got %d", n))
	}
	return enumerate(n, false, func(emit func(u, v NodeID)) {
		for i := 0; i < n; i++ {
			emit(NodeID(i), NodeID((i+1)%n))
		}
	})
}

// Grid returns the rows×cols grid, grid3D(rows, cols, 1): node (r, c) has
// id r·cols+c. Diameter rows+cols-2.
func Grid(rows, cols int) *Graph { return must(grid3D(rows, cols, 1)) }

// star returns the star with center 0 and n-1 leaves. Diameter 2.
func star(n int) *Graph {
	return enumerate(n, true, func(emit func(u, v NodeID)) {
		for i := 1; i < n; i++ {
			emit(0, NodeID(i))
		}
	})
}

// completeBinaryTree returns a complete binary tree on n nodes
// (node i has children 2i+1 and 2i+2 when in range).
func completeBinaryTree(n int) *Graph {
	return enumerate(n, true, func(emit func(u, v NodeID)) {
		for i := 0; i < n; i++ {
			if l := 2*i + 1; l < n {
				emit(NodeID(i), NodeID(l))
			}
			if r := 2*i + 2; r < n {
				emit(NodeID(i), NodeID(r))
			}
		}
	})
}

// complete returns K_n.
func complete(n int) *Graph {
	return enumerate(n, true, func(emit func(u, v NodeID)) {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				emit(NodeID(i), NodeID(j))
			}
		}
	})
}

// RandomConnected returns a connected graph: a random spanning tree plus
// extra random edges until reaching m edges total (m is clamped to
// n(n-1)/2). Deterministic in seed. It panics when m < n-1; FromSpec's er:
// form reports that as an error.
func RandomConnected(n, m int, seed uint64) *Graph {
	return must(randomConnected(n, m, seed))
}

// randomConnected emits RandomConnected's CSR directly (see buildCSR): node
// i of the spanning tree attaches to a uniformly random earlier node, then
// uniform random pairs are drawn until m distinct edges exist, with an
// open-addressed set of packed pairs rejecting self-loops and repeats.
// Edge ids follow the order the edges were drawn in.
func randomConnected(n, m int, seed uint64) (*Graph, error) {
	if m < n-1 {
		return nil, fmt.Errorf("graph: RandomConnected needs m >= n-1 (n=%d, m=%d)", n, m)
	}
	m = min(m, n*(n-1)/2)
	return buildCSR(int64(n), int64(m), false, func(emit func(u, v NodeID)) {
		r := newRNG(seed)
		seen := newPairSet(m)
		add := func(u, v NodeID) bool {
			if u == v {
				return false
			}
			if u > v {
				u, v = v, u
			}
			if !seen.insert(uint64(u)<<32 | uint64(v)) {
				return false
			}
			emit(u, v)
			return true
		}
		for i := 1; i < n; i++ {
			add(NodeID(r.Intn(i)), NodeID(i))
		}
		for k := max(n-1, 0); k < m; {
			if add(NodeID(r.Intn(n)), NodeID(r.Intn(n))) {
				k++
			}
		}
	})
}

// pairSet is an open-addressed set of nonzero uint64 keys at load <= 1/2
// (a packed pair u<v is never zero, the empty slot's value).
type pairSet struct{ slots []uint64 }

func newPairSet(n int) pairSet {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return pairSet{slots: make([]uint64, size)}
}

// insert adds k and reports whether it was absent.
func (s pairSet) insert(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// Dumbbell returns two K_k cliques joined by a path of pathLen extra nodes.
// Total nodes: 2k + pathLen. Good for congestion experiments: all
// clique-to-clique traffic funnels through the path.
func Dumbbell(k, pathLen int) *Graph {
	return enumerate(2*k+pathLen, false, func(emit func(u, v NodeID)) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				emit(NodeID(i), NodeID(j))
				emit(NodeID(k+pathLen+i), NodeID(k+pathLen+j))
			}
		}
		prev := NodeID(0)
		for i := 0; i < pathLen; i++ {
			emit(prev, NodeID(k+i))
			prev = NodeID(k + i)
		}
		emit(prev, NodeID(k+pathLen))
	})
}

// Lollipop returns K_k with a path of pathLen nodes hanging off node 0.
func Lollipop(k, pathLen int) *Graph {
	return enumerate(k+pathLen, false, func(emit func(u, v NodeID)) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				emit(NodeID(i), NodeID(j))
			}
		}
		prev := NodeID(0)
		for i := 0; i < pathLen; i++ {
			emit(prev, NodeID(k+i))
			prev = NodeID(k + i)
		}
	})
}

// StarOfPaths returns deg paths of length pathLen all attached to a hub
// (node 0). This is the worst case for the "natural" registration approach
// (§3.2): Θ(n) registrants behind one hub edge. n = 1 + deg*pathLen.
func StarOfPaths(deg, pathLen int) *Graph {
	return enumerate(1+deg*pathLen, false, func(emit func(u, v NodeID)) {
		for d := 0; d < deg; d++ {
			prev := NodeID(0)
			for i := 0; i < pathLen; i++ {
				v := NodeID(1 + d*pathLen + i)
				emit(prev, v)
				prev = v
			}
		}
	})
}

// WithRandomWeights returns a copy of g whose edge weights are distinct
// values in [1, m], a random permutation determined by seed. Distinct
// weights make the MST unique, which the tests rely on. The copy shares
// g's immutable edge table and CSR arrays; only the weight column is new
// (and stays nil when g has no edges).
func WithRandomWeights(g *Graph, seed uint64) *Graph {
	out := *g
	out.weights = nil
	if m := g.M(); m > 0 {
		r := newRNG(seed)
		out.weights = make([]int64, m)
		for i := range out.weights {
			out.weights[i] = int64(i + 1)
		}
		for i := m - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			out.weights[i], out.weights[j] = out.weights[j], out.weights[i]
		}
	}
	return &out
}
