package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// tracingAlgo wraps bfsAlgo and records every send it performs, tagged
// with the pulse, into a shared log. Used to check the strong form of
// Theorem 5.2: the synchronized execution sends exactly the synchronous
// execution's message multiset, pulse by pulse.
type tracingAlgo struct {
	inner syncrun.Handler
	log   *[]string
	me    graph.NodeID
}

type tracingAPI struct {
	syncrun.API
	t     *tracingAlgo
	pulse int
}

func (a *tracingAPI) Send(to graph.NodeID, body wire.Body) {
	*a.t.log = append(*a.t.log, fmt.Sprintf("p%d %d->%d %v", a.pulse, a.t.me, to, body))
	a.API.Send(to, body)
}

func (h *tracingAlgo) Init(n syncrun.API) {
	h.me = n.ID()
	h.inner.Init(&tracingAPI{API: n, t: h, pulse: 0})
}

func (h *tracingAlgo) Pulse(n syncrun.API, p int, recvd []syncrun.Incoming) {
	h.inner.Pulse(&tracingAPI{API: n, t: h, pulse: p}, p, recvd)
}

func sortedTrace(log []string) []string {
	out := append([]string(nil), log...)
	sort.Strings(out)
	return out
}

// TestTheorem52TraceEquivalence: the full (pulse, sender, receiver, body)
// multiset of algorithm messages must be identical between the lockstep
// run and the synchronized asynchronous run, for every adversary.
func TestTheorem52TraceEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		mk   func() syncrun.Handler
	}{
		{"bfs-grid", graph.Grid(4, 4), func() syncrun.Handler { return &bfsAlgo{src: 0} }},
		{"echo-path", graph.Path(9), func() syncrun.Handler { return &echoAlgo{root: 0} }},
		{"msbfs-er", graph.RandomConnected(18, 40, 3), func() syncrun.Handler {
			return &msBFSAlgo{sources: []graph.NodeID{0, 9}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var syncLog []string
			mkSync := func(graph.NodeID) syncrun.Handler {
				return &tracingAlgo{inner: tc.mk(), log: &syncLog}
			}
			sres := syncrun.New(tc.g, mkSync).Run()
			want := sortedTrace(syncLog)

			for _, adv := range async.StandardAdversaries(tc.g.N(), 83) {
				var asyncLog []string
				mkAsync := func(graph.NodeID) syncrun.Handler {
					return &tracingAlgo{inner: tc.mk(), log: &asyncLog}
				}
				Synchronize(Config{Graph: tc.g, Bound: sres.Rounds + 2, Adversary: adv}, mkAsync)
				got := sortedTrace(asyncLog)
				if len(got) != len(want) {
					t.Fatalf("%s: %d messages vs %d", adv.Name(), len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: trace diverges at %d: %q vs %q", adv.Name(), i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestTheorem54UnknownBound(t *testing.T) {
	// chainAlgo on a 24-path needs 24 pulses; doubling tries 8, 16, 32.
	g := graph.Path(24)
	mk := func(graph.NodeID) syncrun.Handler { return &chainAlgo{} }
	res, bound := SynchronizeUnknownBound(g, async.SeededRandom{Seed: 5}, mk)
	if bound != 32 {
		t.Fatalf("final bound %d, want 32", bound)
	}
	for v := 0; v < g.N(); v++ {
		if res.Outputs[graph.NodeID(v)] != v {
			t.Fatalf("node %d output %v", v, res.Outputs[graph.NodeID(v)])
		}
	}
	// Σ2^t accounting (see autobound.go): the failed attempts at bounds 8
	// and 16 are billed too, so the doubling totals must strictly exceed a
	// fresh run at the discovered bound — in messages, time, and the
	// merged per-protocol breakdown — while staying within the doubling
	// argument's small constant factor.
	fresh := Synchronize(Config{Graph: g, Bound: 32, Adversary: async.SeededRandom{Seed: 5}}, mk)
	if res.Msgs <= fresh.Msgs {
		t.Fatalf("doubling msgs %d do not include failed attempts (final attempt alone: %d)", res.Msgs, fresh.Msgs)
	}
	if res.Msgs > 4*fresh.Msgs {
		t.Fatalf("doubling msgs %d exceed the Σ2^t envelope of final-run %d", res.Msgs, fresh.Msgs)
	}
	if res.Time <= fresh.Time {
		t.Fatalf("doubling time %g does not include failed attempts (final attempt alone: %g)", res.Time, fresh.Time)
	}
	// An aborted attempt can have sends still in flight, so acks may trail
	// msgs — but never exceed them, and the failed attempts' acks count.
	if res.Acks > res.Msgs || res.Acks <= fresh.Acks {
		t.Fatalf("acks %d implausible (msgs %d, final attempt alone %d)", res.Acks, res.Msgs, fresh.Acks)
	}
	var perProtoSum uint64
	for _, n := range res.PerProto {
		perProtoSum += n
	}
	if perProtoSum != res.Msgs {
		t.Fatalf("merged PerProto sums to %d, want Msgs %d", perProtoSum, res.Msgs)
	}
	if res.PerProto[protoAlgo] <= fresh.PerProto[protoAlgo] {
		t.Fatalf("PerProto[algo] %d not merged across attempts (final attempt alone: %d)",
			res.PerProto[protoAlgo], fresh.PerProto[protoAlgo])
	}
}
