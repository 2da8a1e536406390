package shard

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/slab"
	"repro/internal/wire"
)

// Workloads are shipped to workers by name: every process — coordinator,
// each worker, and the serial reference run a test compares against —
// builds handlers from the same pure function of (config, node id), so no
// handler state ever crosses a socket.

// WorkloadConfig is the per-run workload parameterization carried in the
// HELLO message.
type WorkloadConfig struct {
	// Sources are the initiating nodes (default {0}).
	Sources []graph.NodeID
	// SegWords sizes the arena payload of segment-carrying workloads
	// (segflood); 0 elsewhere.
	SegWords int
}

// NewWorkload builds the named workload's handler factory. Factories are
// deterministic in (name, cfg, id); unknown names error at HELLO time.
func NewWorkload(name string, cfg WorkloadConfig) (func(id graph.NodeID) async.Handler, error) {
	if cfg.SegWords < 0 {
		return nil, fmt.Errorf("shard: negative SegWords %d", cfg.SegWords)
	}
	srcs := cfg.Sources
	if len(srcs) == 0 {
		srcs = []graph.NodeID{0}
	}
	isSrc := func(id graph.NodeID) bool {
		for _, s := range srcs {
			if s == id {
				return true
			}
		}
		return false
	}
	switch name {
	case "flood":
		var sl slab.Objects[floodNode]
		return func(id graph.NodeID) async.Handler {
			return sl.Alloc(floodNode{root: isSrc(id)})
		}, nil
	case "bfs":
		var sl slab.Objects[bfsNode]
		return func(id graph.NodeID) async.Handler {
			return sl.Alloc(bfsNode{root: isSrc(id)})
		}, nil
	case "segflood":
		w := cfg.SegWords
		if w <= 0 {
			w = 48
		}
		var sl slab.Objects[segFloodNode]
		return func(id graph.NodeID) async.Handler {
			return sl.Alloc(segFloodNode{root: isSrc(id), words: w})
		}, nil
	}
	return nil, fmt.Errorf("shard: unknown workload %q", name)
}

// Workloads lists the registered workload names (CLI -list support).
func Workloads() []string { return []string{"bfs", "flood", "segflood"} }

const (
	floodProto async.Proto = 10
	bfsProto   async.Proto = 11
	segProto   async.Proto = 12
)

// floodNode relays one wave across the graph; each node outputs the node
// it first heard from (its parent in the race-determined flood tree —
// deterministic because the engine is). Sources output themselves.
type floodNode struct {
	async.NopAck
	root bool
	seen bool
}

func (f *floodNode) Init(n *async.Node) {
	if !f.root {
		return
	}
	f.seen = true
	n.OutputBody(outval.Int64(int64(n.ID())))
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: floodProto, Body: wire.Tag(1)})
	}
}

// SaveState implements wire.StateCodec (root is config, rebuilt by the
// workload factory on every process).
func (f *floodNode) SaveState(e *wire.Enc) { f.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (f *floodNode) LoadState(d *wire.Dec) { f.state(d.Coder()) }

func (f *floodNode) state(c *wire.Coder) { c.Bool(&f.seen) }

func (f *floodNode) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	if f.seen {
		return
	}
	f.seen = true
	n.OutputBody(outval.Int64(int64(from)))
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: floodProto, Body: wire.Tag(1)})
	}
}

// bfsNode computes exact hop distances from the source set by monotone
// relaxation: a node adopts any strictly smaller distance it hears and
// re-floods it. Converges to multi-source BFS distances with the node's
// final Output equal to its true distance, independent of delivery order.
type bfsNode struct {
	async.NopAck
	root bool
	have bool
	dist int64
}

func (b *bfsNode) Init(n *async.Node) {
	if !b.root {
		return
	}
	b.have, b.dist = true, 0
	n.OutputBody(outval.Int64(0))
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: bfsProto, Body: wire.Body{Kind: 1, A: 0}})
	}
}

// SaveState implements wire.StateCodec.
func (b *bfsNode) SaveState(e *wire.Enc) { b.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (b *bfsNode) LoadState(d *wire.Dec) { b.state(d.Coder()) }

func (b *bfsNode) state(c *wire.Coder) {
	c.Bool(&b.have)
	c.I64(&b.dist)
}

func (b *bfsNode) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	nd := m.Body.A + 1
	if b.have && nd >= b.dist {
		return
	}
	b.have, b.dist = true, nd
	n.OutputBody(outval.Int64(nd))
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: bfsProto, Body: wire.Body{Kind: 1, A: nd}})
	}
}

// segFloodNode is the transport-coverage workload: the wave carries an
// arena segment (words words, a pattern keyed by the sender), receivers
// verify the pattern inside the delivery callback — the only window the
// segment is alive — and output a checksum. Exercises segment re-homing
// across shard boundaries end to end.
type segFloodNode struct {
	async.NopAck
	root  bool
	words int
	seen  bool
}

func (s *segFloodNode) fill(n *async.Node) wire.Body {
	seg, w := n.Arena().Alloc(s.words)
	for i := range w {
		w[i] = int32(n.ID()) ^ int32(i)
	}
	return wire.Body{Kind: 1, A: int64(n.ID()), Seg: seg}
}

func (s *segFloodNode) relay(n *async.Node) {
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, async.Msg{Proto: segProto, Body: s.fill(n)})
	}
}

func (s *segFloodNode) Init(n *async.Node) {
	if !s.root {
		return
	}
	s.seen = true
	n.OutputBody(outval.Int64(int64(n.ID())))
	s.relay(n)
}

// SaveState implements wire.StateCodec (words is config).
func (s *segFloodNode) SaveState(e *wire.Enc) { s.state(e.Coder()) }

// LoadState implements wire.StateCodec.
func (s *segFloodNode) LoadState(d *wire.Dec) { s.state(d.Coder()) }

func (s *segFloodNode) state(c *wire.Coder) { c.Bool(&s.seen) }

func (s *segFloodNode) Recv(n *async.Node, from graph.NodeID, m async.Msg) {
	w := n.Arena().Data(m.Body.Seg)
	sum := int64(0)
	for i, x := range w {
		if x != int32(from)^int32(i) {
			panic(fmt.Sprintf("shard: segment corrupted in transit: word %d = %d from node %d", i, x, from))
		}
		sum += int64(x)
	}
	if s.seen {
		return
	}
	s.seen = true
	n.OutputBody(outval.Int64(sum + m.Body.A))
	s.relay(n)
}

// ParseAdversary builds an adversary from its spec string, the form the
// coordinator ships in HELLO (every process parses the same string, so
// every engine consults an identical delay function):
//
//	fixed:<d>            constant delay d
//	random:<seed>        SeededRandom
//	skew:cut=<n>,fast=<d> fast links below node n, slow elsewhere
//	flaky:<seed>         bimodal fast/slow
//	edge:<seed>          per-edge lottery
func ParseAdversary(spec string) (async.Adversary, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "fixed":
		d, err := parseDelay(arg)
		if err != nil {
			return nil, fmt.Errorf("shard: adversary %q: %v", spec, err)
		}
		return async.Fixed{D: d}, nil
	case "random", "flaky", "edge":
		seed, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("shard: adversary %q: %v", spec, err)
		}
		switch name {
		case "random":
			return async.SeededRandom{Seed: seed}, nil
		case "flaky":
			return async.Flaky{Seed: seed}, nil
		default:
			return async.EdgeLottery{Seed: seed}, nil
		}
	case "skew":
		var cut int64 = -1
		fast := -1.0
		for _, kv := range strings.Split(arg, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("shard: adversary %q: bad parameter %q", spec, kv)
			}
			switch k {
			case "cut":
				n, err := strconv.ParseInt(v, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("shard: adversary %q: %v", spec, err)
				}
				cut = n
			case "fast":
				f, err := parseDelay(v)
				if err != nil {
					return nil, fmt.Errorf("shard: adversary %q: %v", spec, err)
				}
				fast = f
			default:
				return nil, fmt.Errorf("shard: adversary %q: unknown parameter %q", spec, k)
			}
		}
		if cut < 0 || fast <= 0 {
			return nil, fmt.Errorf("shard: adversary %q needs cut= and fast=", spec)
		}
		return async.Skew{Cut: graph.NodeID(cut), FastD: fast}, nil
	}
	return nil, fmt.Errorf("shard: unknown adversary %q (want fixed:/random:/skew:/flaky:/edge:)", spec)
}

// parseDelay parses a delay parameter; NaN and ±Inf are errors, so a spec
// string can never carry a non-finite delay into the engine.
func parseDelay(s string) (float64, error) {
	d, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(d) || math.IsInf(d, 0)) {
		err = fmt.Errorf("delay %q is not finite", s)
	}
	return d, err
}

// sortNodeIDs sorts in place and returns its argument (HELLO ships
// sources in canonical order so every process agrees).
func sortNodeIDs(ids []graph.NodeID) []graph.NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
