package graph

// unionFind is a disjoint-set forest with union by rank and path halving.
type unionFind struct {
	parent []int
	rank   []int
	count  int
}

// newUnionFind returns n singleton sets.
func newUnionFind(n int) *unionFind {
	uf := &unionFind{
		parent: make([]int, n),
		rank:   make([]int, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x.
func (uf *unionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; returns false if already joined.
func (uf *unionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the number of disjoint sets.
func (uf *unionFind) Count() int { return uf.count }

// Same reports whether x and y are in the same set.
func (uf *unionFind) Same(x, y int) bool { return uf.Find(x) == uf.Find(y) }
