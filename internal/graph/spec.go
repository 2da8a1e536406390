package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// FromSpec builds a graph from a compact textual description, so CLIs and
// experiments can select any generator and size without code changes.
//
// Accepted forms (sizes are decimal; x separates dimensions):
//
//	path:<n>                 path graph
//	cycle:<n>                cycle
//	grid:<rows>x<cols>       2-D grid
//	grid3d:<x>x<y>x<z>       3-D grid (implicit CSR)
//	star:<n>                 star
//	tree:<n>                 complete binary tree
//	complete:<n>             K_n
//	er:n=<n>,m=<m>[,seed=<s>]   random connected (spanning tree + extras, implicit)
//	pa:n=<n>,m=<m>[,seed=<s>]   power-law preferential attachment (implicit)
//	ring:k=<k>,c=<c>         ring of k c-cliques joined by road edges (implicit)
//
// Implicit generators validate their size against the 32-bit id space and
// return a clear error instead of allocating.
func FromSpec(spec string) (*Graph, error) {
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("graph: spec %q has no ':' (want e.g. grid3d:100x100x100)", spec)
	}
	switch kind {
	case "path", "cycle", "star", "tree", "complete":
		n, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad size %q", spec, args)
		}
		// The generators panic on these sizes; a spec string is input.
		if n < 1 || n > maxNodes || kind == "cycle" && n < 3 || kind == "complete" && int64(n)*int64(n-1)/2 > maxEdges {
			return nil, fmt.Errorf("graph: spec %q: size out of range (positive, at least 3 for a cycle, within MaxNodes and MaxEdges)", spec)
		}
		switch kind {
		case "path":
			return Path(n), nil
		case "cycle":
			return Cycle(n), nil
		case "star":
			return star(n), nil
		case "tree":
			return completeBinaryTree(n), nil
		default:
			return complete(n), nil
		}
	case "grid":
		dims, err := specDims(spec, args, 2)
		if err != nil {
			return nil, err
		}
		if r, c := int64(dims[0]), int64(dims[1]); r < 1 || c < 1 || r > maxNodes || c > maxNodes || r*c > maxNodes {
			return nil, fmt.Errorf("graph: spec %q: dimensions out of range (positive, at most MaxNodes nodes)", spec)
		}
		return Grid(dims[0], dims[1]), nil
	case "grid3d":
		dims, err := specDims(spec, args, 3)
		if err != nil {
			return nil, err
		}
		return grid3D(dims[0], dims[1], dims[2])
	case "er":
		kv, err := specKV(spec, args, "n", "m", "seed")
		if err != nil {
			return nil, err
		}
		if n, m := kv["n"], kv["m"]; n < 1 || m < n-1 {
			return nil, fmt.Errorf("graph: spec %q needs n >= 1 and m >= n-1 (a spanning tree), got n=%d m=%d", spec, n, m)
		}
		return randomConnected(kv["n"], kv["m"], uint64(kv["seed"]))
	case "pa":
		kv, err := specKV(spec, args, "n", "m", "seed")
		if err != nil {
			return nil, err
		}
		return powerLaw(kv["n"], kv["m"], uint64(kv["seed"]))
	case "ring":
		kv, err := specKV(spec, args, "k", "c")
		if err != nil {
			return nil, err
		}
		return ringOfCliques(kv["k"], kv["c"])
	default:
		return nil, fmt.Errorf("graph: unknown generator %q in spec %q (want path|cycle|grid|grid3d|star|tree|complete|er|pa|ring)", kind, spec)
	}
}

// specDims parses "AxBxC"-style dimension lists of exactly want entries.
func specDims(spec, args string, want int) ([]int, error) {
	parts := strings.Split(args, "x")
	if len(parts) != want {
		return nil, fmt.Errorf("graph: spec %q wants %d 'x'-separated dimensions, got %q", spec, want, args)
	}
	dims := make([]int, want)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad dimension %q", spec, p)
		}
		dims[i] = v
	}
	return dims, nil
}

// specKV parses "k=v,k=v" argument lists. Keys beyond the first two are
// optional and default to zero; unknown keys error.
func specKV(spec, args string, keys ...string) (map[string]int, error) {
	out := make(map[string]int, len(keys))
	known := make(map[string]bool, len(keys))
	for _, k := range keys {
		known[k] = true
		out[k] = 0
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(args, ",") {
		k, vs, ok := strings.Cut(part, "=")
		if !ok || !known[k] {
			return nil, fmt.Errorf("graph: spec %q: bad argument %q (want %s)", spec, part, strings.Join(keys, "=…,")+"=…")
		}
		if seen[k] {
			return nil, fmt.Errorf("graph: spec %q: duplicate argument %q", spec, k)
		}
		seen[k] = true
		v, err := strconv.Atoi(vs)
		if err != nil {
			return nil, fmt.Errorf("graph: spec %q: bad value %q for %s", spec, vs, k)
		}
		out[k] = v
	}
	for _, k := range keys[:2] {
		if !seen[k] {
			return nil, fmt.Errorf("graph: spec %q: missing required argument %s", spec, k)
		}
	}
	return out, nil
}
