package syncrun_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// refRunner is a deliberately naive lockstep engine: map inboxes, batches
// sorted by sender with sort.Slice, every effect applied on the spot. It
// shares no code with syncrun.Runner, so agreeing with it is evidence, not
// self-agreement.
type refRunner struct {
	g     *graph.Graph
	hs    []syncrun.Handler
	pulse int
	next  map[graph.NodeID][]syncrun.Incoming // deliveries for the next pulse
	sent  map[graph.NodeID]bool               // nodes that sent this pulse
	last  map[[2]graph.NodeID]int             // pulse+1 of each directed link's last send
	arena wire.Arena
	res   syncrun.Result
}

type refNode struct {
	r  *refRunner
	id graph.NodeID
}

func (n refNode) ID() graph.NodeID            { return n.id }
func (n refNode) Neighbors() []graph.Neighbor { return n.r.g.Neighbors(n.id) }
func (n refNode) Degree() int                 { return len(n.Neighbors()) }
func (n refNode) Arena() *wire.Arena          { return &n.r.arena }
func (n refNode) Output(v any)                { n.output(v) }
func (n refNode) OutputBody(b wire.Body)      { n.output(outval.Decode(b)) }

func (n refNode) HasOutput() bool {
	_, ok := n.r.res.Outputs[n.id]
	return ok
}

func (n refNode) output(v any) {
	if !n.HasOutput() {
		n.r.res.T = max(n.r.res.T, n.r.pulse)
	}
	n.r.res.Outputs[n.id] = v
}

func (n refNode) Send(to graph.NodeID, body wire.Body) {
	r := n.r
	adjacent := false
	for _, nb := range n.Neighbors() {
		adjacent = adjacent || nb.Node == to
	}
	link := [2]graph.NodeID{n.id, to}
	if !adjacent || r.last[link] == r.pulse+1 {
		panic(fmt.Sprintf("reference: illegal send %d->%d at pulse %d", n.id, to, r.pulse))
	}
	r.last[link] = r.pulse + 1
	r.next[to] = append(r.next[to], syncrun.Incoming{From: n.id, Body: body})
	r.sent[n.id] = true
	r.res.M++
	r.res.Trace = append(r.res.Trace, syncrun.TraceEntry{Pulse: r.pulse, From: n.id, To: to, Body: body})
}

// runReference runs mk's algorithm on g to quiescence: Init everywhere,
// then each pulse steps, in ascending id order, every node that received
// a message or sent one in the previous pulse.
func runReference(g *graph.Graph, mk func(graph.NodeID) syncrun.Handler) syncrun.Result {
	r := &refRunner{
		g:    g,
		next: map[graph.NodeID][]syncrun.Incoming{},
		sent: map[graph.NodeID]bool{},
		last: map[[2]graph.NodeID]int{},
		res:  syncrun.Result{Outputs: map[graph.NodeID]any{}},
	}
	for v := 0; v < g.N(); v++ {
		r.hs = append(r.hs, mk(graph.NodeID(v)))
	}
	for v, h := range r.hs {
		h.Init(refNode{r, graph.NodeID(v)})
	}
	for r.pulse = 1; len(r.next)+len(r.sent) > 0; r.pulse++ {
		if r.pulse > 1<<16 {
			panic("reference: no quiescence")
		}
		inbox, active := r.next, []graph.NodeID{}
		for v := range r.sent {
			active = append(active, v)
		}
		for v := range inbox {
			if !r.sent[v] {
				active = append(active, v)
			}
		}
		r.next, r.sent = map[graph.NodeID][]syncrun.Incoming{}, map[graph.NodeID]bool{}
		sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
		for _, v := range active {
			batch := inbox[v]
			sort.Slice(batch, func(i, j int) bool { return batch[i].From < batch[j].From })
			r.hs[v].Pulse(refNode{r, v}, r.pulse, batch)
		}
	}
	r.res.Rounds = r.pulse - 1
	return r.res
}

// refApps lists the lockstep algorithms of internal/apps, each with the
// graph it runs on (MST needs distinct weights) and its handler factory.
func refApps(g *graph.Graph) map[string]func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
	return map[string]func() (*graph.Graph, func(graph.NodeID) syncrun.Handler){
		"bfs": func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
			srcs := []graph.NodeID{0, graph.NodeID(g.N() - 1)}
			return g, func(graph.NodeID) syncrun.Handler { return &apps.BFS{Sources: srcs} }
		},
		"flood": func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
			return g, func(graph.NodeID) syncrun.Handler { return &apps.Flood{Source: 0} }
		},
		"echo": func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
			return g, func(graph.NodeID) syncrun.Handler { return &apps.Echo{Root: 0} }
		},
		"tbfs": func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
			return g, func(graph.NodeID) syncrun.Handler {
				return &apps.TBFS{Sources: []graph.NodeID{0}, Threshold: 3}
			}
		},
		"leader": func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
			layered := cover.BuildLayered(g, max(g.Diameter(), 1), nil)
			spans := apps.LeaderSpansAll(g, layered)
			return g, func(graph.NodeID) syncrun.Handler {
				return &apps.Leader{Covers: layered, SpansAll: spans}
			}
		},
		"mst": func() (*graph.Graph, func(graph.NodeID) syncrun.Handler) {
			wg := graph.WithRandomWeights(g, 11)
			tree := cover.BFSTreeCluster(wg, 0)
			weights := make([]int64, wg.M())
			for i := range weights {
				weights[i] = wg.Weight(graph.EdgeID(i))
			}
			return wg, func(graph.NodeID) syncrun.Handler {
				return &apps.MST{Barrier: tree, Weights: weights}
			}
		},
	}
}

// sameAsReference fails t at the first difference between the Runner's
// traced Result and the reference's.
func sameAsReference(t *testing.T, got, want syncrun.Result) {
	t.Helper()
	if got.T != want.T || got.Rounds != want.Rounds || got.M != want.M {
		t.Fatalf("T/Rounds/M = %d/%d/%d, reference %d/%d/%d",
			got.T, got.Rounds, got.M, want.T, want.Rounds, want.M)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("outputs differ from the reference:\n got %v\nwant %v", got.Outputs, want.Outputs)
	}
	for i := range min(len(got.Trace), len(want.Trace)) {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("trace[%d] = %+v, reference %+v", i, got.Trace[i], want.Trace[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace has %d entries, reference %d", len(got.Trace), len(want.Trace))
	}
}

// refAppNames orders refApps' keys.
var refAppNames = []string{"bfs", "echo", "flood", "leader", "mst", "tbfs"}

// lockstepModes are the Runner configurations checked against the
// reference: Single, and Multi with the pool forced on for every pulse.
var lockstepModes = []struct {
	name string
	cfg  func(*syncrun.Runner) *syncrun.Runner
}{
	{"single", func(r *syncrun.Runner) *syncrun.Runner { return r.WithMode(syncrun.ModeSingle) }},
	{"multi", func(r *syncrun.Runner) *syncrun.Runner {
		return r.WithMode(syncrun.ModeMulti).WithWorkers(3).WithMinParallel(1)
	}},
}

// TestLockstepReferenceMatrix checks T, Rounds, M, outputs and the full
// trace of every lockstep app on four generators, in both modes, against
// the naive reference.
func TestLockstepReferenceMatrix(t *testing.T) {
	for _, spec := range []string{"path:17", "grid:5x7", "er:n=60,m=150,seed=3", "pa:n=60,m=2,seed=5"} {
		g, err := graph.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		byName := refApps(g)
		for _, name := range refAppNames {
			ag, mk := byName[name]()
			want := runReference(ag, mk)
			for _, m := range lockstepModes {
				t.Run(spec+"/"+name+"/"+m.name, func(t *testing.T) {
					sameAsReference(t, m.cfg(syncrun.New(ag, mk).KeepTrace()).Run(), want)
				})
			}
		}
	}
}

// FuzzLockstepVsReference drives random generator parameters and apps
// through the Runner and the reference.
func FuzzLockstepVsReference(f *testing.F) {
	f.Add(uint8(0), uint8(9), uint8(0), uint8(0), false)
	f.Add(uint8(2), uint8(4), uint8(5), uint8(1), true)
	f.Add(uint8(5), uint8(30), uint8(40), uint8(3), true)
	f.Add(uint8(6), uint8(25), uint8(2), uint8(4), false)
	f.Add(uint8(7), uint8(3), uint8(4), uint8(5), true)
	f.Add(uint8(3), uint8(12), uint8(0), uint8(2), true)
	f.Fuzz(func(t *testing.T, kind, a, b, app uint8, multi bool) {
		n := 2 + int(a)%40
		spec := []string{
			fmt.Sprintf("path:%d", n),
			fmt.Sprintf("cycle:%d", n+1),
			fmt.Sprintf("grid:%dx%d", 1+int(a)%7, 2+int(b)%7),
			fmt.Sprintf("star:%d", n),
			fmt.Sprintf("tree:%d", n),
			fmt.Sprintf("er:n=%d,m=%d,seed=%d", n, n-1+int(b)%(2*n), b),
			fmt.Sprintf("pa:n=%d,m=%d,seed=%d", n, 1+int(b)%3, b),
			fmt.Sprintf("ring:k=%d,c=%d", 2+int(a)%6, 2+int(b)%4),
		}[int(kind)%8]
		g, err := graph.FromSpec(spec)
		if err != nil {
			t.Skip(err)
		}
		ag, mk := refApps(g)[refAppNames[int(app)%len(refAppNames)]]()
		m := lockstepModes[0]
		if multi {
			m = lockstepModes[1]
		}
		sameAsReference(t, m.cfg(syncrun.New(ag, mk).KeepTrace()).Run(), runReference(ag, mk))
	})
}
