package async

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// segSpray is the fault-plane segment workload: node 0 sprays a
// segment-carrying message at every neighbor and each node re-sprays
// once on first receipt. Every receipt folds the incoming segment's
// words into a commutative checksum published as the node's output, so
// cross-mode comparison covers segment *contents*. Dropped attempts and
// exhausted budgets must release every segment exactly once — the
// matrix and fuzz tests below assert a zero arena Live count after
// quiescence.
type segSpray struct {
	NopAck
	sent bool
	sum  int64
}

func (h *segSpray) spray(n *Node) {
	h.sent = true
	for _, nb := range n.Neighbors() {
		seg, view := n.Arena().Alloc(4)
		for i := range view {
			view[i] = int32(int(n.ID()) + i)
		}
		n.Send(nb.Node, Msg{Proto: 7, Body: wire.Body{Kind: 2, A: int64(n.ID()), Seg: seg}})
	}
}

func (h *segSpray) Init(n *Node) {
	if n.ID() == 0 {
		h.spray(n)
	}
}

func (h *segSpray) Recv(n *Node, from graph.NodeID, m Msg) {
	for _, w := range n.Arena().Data(m.Body.Seg) {
		h.sum += int64(w) * (int64(from) + 3)
	}
	n.Output(h.sum)
	if !h.sent {
		h.spray(n)
	}
}

func (h *segSpray) SaveState(e *wire.Enc) {
	e.Bool(h.sent)
	e.I64(h.sum)
}

func (h *segSpray) LoadState(d *wire.Dec) {
	h.sent = d.Bool()
	h.sum = d.I64()
}

// stripSegHandles zeroes the arena segment handles inside a Result's
// trace. Handles are process-local addresses — the shard plane already
// re-carves them on receive, and under parallel execution the shared
// arena hands out offsets in worker-interleaving order — so the
// cross-mode determinism contract covers segment contents (checked via
// segSpray's checksum outputs), not offsets.
func stripSegHandles(r Result) Result {
	if len(r.Trace) > 0 {
		tr := make([]TraceEntry, len(r.Trace))
		copy(tr, r.Trace)
		for i := range tr {
			tr[i].Msg.Body.Seg = wire.Seg{}
		}
		r.Trace = tr
	}
	return r
}

func TestFaultSpecParse(t *testing.T) {
	fs, err := ParseFaultSpec("crash:p=0.01,drop:p=0.05,budget=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if fs.CrashP != 0.01 || fs.DropP != 0.05 || fs.Budget != 3 || fs.Seed != 7 {
		t.Fatalf("parsed %+v", fs)
	}
	// String round-trips through the parser.
	back, err := ParseFaultSpec(fs.String())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *fs {
		t.Fatalf("round-trip %+v != %+v", back, fs)
	}
	for _, none := range []string{"", "none"} {
		if got, err := ParseFaultSpec(none); err != nil || got != nil {
			t.Fatalf("ParseFaultSpec(%q) = %v, %v", none, got, err)
		}
	}
	for _, bad := range []string{
		"crash:p=1.5", "drop:p=-1", "budget=999", "budget=x",
		"what", "backoff=2", "link:p=1",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

// TestFaultSchedulePurity: every fault decision is a pure function of its
// arguments — the determinism bedrock the cross-mode and cross-process
// guarantees rest on.
func TestFaultSchedulePurity(t *testing.T) {
	fs := &FaultSchedule{Seed: 9, CrashP: 0.1, DropP: 0.2, LinkP: 0.05, Budget: 3}
	for i := 0; i < 50; i++ {
		v := graph.NodeID(i % 7)
		w := graph.NodeID((i + 3) % 7)
		e := uint64(i)
		if fs.CrashedEpoch(v, e) != fs.CrashedEpoch(v, e) {
			t.Fatal("CrashedEpoch not pure")
		}
		if fs.LinkDownEpoch(v, w, e) != fs.LinkDownEpoch(w, v, e) {
			t.Fatal("LinkDownEpoch not symmetric in the endpoint pair")
		}
		if fs.Drop(v, w, uint64(i)) != fs.Drop(v, w, uint64(i)) {
			t.Fatal("Drop not pure")
		}
	}
	// CrashedSet is ascending and matches CrashedEpoch.
	set := fs.CrashedSet(200, 4)
	for i, v := range set {
		if i > 0 && set[i-1] >= v {
			t.Fatal("CrashedSet not ascending")
		}
		if !fs.CrashedEpoch(v, 4) {
			t.Fatalf("CrashedSet includes non-crashed %d", v)
		}
	}
	// Backoff honors the bounded-lag window safety condition: never below
	// the adversary lookahead, never above the model's unit delay.
	for attempt := uint8(0); attempt < 10; attempt++ {
		for _, la := range []float64{1.0 / 1024, 0.25, 1} {
			b := fs.backoff(attempt, la)
			if b < la || b > 1 {
				t.Fatalf("backoff(%d, %g) = %g outside [lookahead, 1]", attempt, la, b)
			}
		}
	}
}

// TestFaultMatrixModes is the tentpole determinism contract: for the full
// fault-schedule matrix across graphs and seeds, Single, bounded-lag
// Multi, and speculative executions must produce deep-equal Results —
// fault decisions, retransmissions, undeliverable abandonments, traces
// and all. Run under -race it is also the fault plane's data-race test.
func TestFaultMatrixModes(t *testing.T) {
	anyDropped := false
	anyUndeliv := false
	for _, seed := range []uint64{3, 17} {
		graphs := matrixGraphs(seed)[:4]
		for _, fs := range standardFaultSchedules(seed) {
			for _, tg := range graphs {
				adv := WithFaults(SeededRandom{Seed: seed}, fs)
				mkFlood := func(graph.NodeID) Handler { return &multiFlood{k: 3} }
				mkSeg := func(graph.NodeID) Handler { return &segSpray{} }
				for name, mk := range map[string]func(graph.NodeID) Handler{"multiflood": mkFlood, "segspray": mkSeg} {
					serial := New(tg.g, adv, mk).WithMode(ModeSingle).KeepTrace()
					raw := serial.Run()
					want := stripSegHandles(raw)
					if live := serial.Arena().Live(); live != 0 {
						t.Fatalf("seed=%d fs=%s graph=%s wl=%s: serial leaked %d segments",
							seed, fs, tg.name, name, live)
					}
					multi := New(tg.g, adv, mk).WithMode(ModeMulti).
						WithWorkers(4).WithMinParallel(1).KeepTrace()
					if got := stripSegHandles(multi.Run()); !reflect.DeepEqual(want, got) {
						t.Fatalf("seed=%d fs=%s graph=%s wl=%s: Multi differs from serial\nserial: %+v\nmulti:  %+v",
							seed, fs, tg.name, name, summarize(want), summarize(got))
					}
					if live := multi.Arena().Live(); live != 0 {
						t.Fatalf("seed=%d fs=%s graph=%s wl=%s: Multi leaked %d segments",
							seed, fs, tg.name, name, live)
					}
					spec := New(tg.g, adv, mk).WithMode(ModeSpec).
						WithWorkers(4).WithMinParallel(1).KeepTrace()
					if got := stripSegHandles(spec.Run()); !reflect.DeepEqual(want, got) {
						t.Fatalf("seed=%d fs=%s graph=%s wl=%s: Spec differs from serial\nserial: %+v\nspec:   %+v",
							seed, fs, tg.name, name, summarize(want), summarize(got))
					}
					if live := spec.Arena().Live(); live != 0 {
						t.Fatalf("seed=%d fs=%s graph=%s wl=%s: Spec leaked %d segments",
							seed, fs, tg.name, name, live)
					}
					// Drops either retransmit or abandon — no third fate.
					if want.Dropped != want.Retrans+want.Undeliverable {
						t.Fatalf("dropped %d != retrans %d + undeliverable %d",
							want.Dropped, want.Retrans, want.Undeliverable)
					}
					nUndeliv := uint64(0)
					for _, te := range want.Trace {
						if te.Kind == traceUndeliverable {
							nUndeliv++
						}
					}
					if nUndeliv != want.Undeliverable {
						t.Fatalf("trace has %d undeliverable entries, counter says %d",
							nUndeliv, want.Undeliverable)
					}
					anyDropped = anyDropped || want.Dropped > 0
					anyUndeliv = anyUndeliv || want.Undeliverable > 0
				}
			}
		}
	}
	if !anyDropped || !anyUndeliv {
		t.Fatalf("matrix never exercised the fault plane (dropped=%v undeliverable=%v)",
			anyDropped, anyUndeliv)
	}
}

// TestFaultFreeSchedulesMatchBaseline: wrapping an adversary in an inert
// schedule (or none) must not perturb a single byte of the run.
func TestFaultFreeSchedulesMatchBaseline(t *testing.T) {
	g := graph.Grid(6, 7)
	mk := func(graph.NodeID) Handler { return &multiFlood{k: 2} }
	adv := SeededRandom{Seed: 5}
	want := New(g, adv, mk).KeepTrace().Run()
	got := New(g, WithFaults(adv, &FaultSchedule{Seed: 1}), mk).KeepTrace().Run()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("inert fault schedule changed the run")
	}
	if got.Dropped != 0 || got.Retrans != 0 || got.Undeliverable != 0 {
		t.Fatalf("inert schedule reported faults: %+v", summarize(got))
	}
}

// TestFaultRetransDelivers: with a generous budget every dropped message
// is eventually delivered, so outputs match the fault-free run even
// though the delivery schedule (and therefore timings) differ.
func TestFaultRetransDelivers(t *testing.T) {
	g := graph.RandomConnected(40, 90, 13)
	mk := func(graph.NodeID) Handler { return &multiFlood{k: 2} }
	adv := SeededRandom{Seed: 11}
	clean := New(g, adv, mk).Run()
	fs := &FaultSchedule{Seed: 21, DropP: 0.3, Budget: 64}
	faulty := New(g, WithFaults(adv, fs), mk).Run()
	if faulty.Dropped == 0 || faulty.Retrans == 0 {
		t.Fatalf("drop schedule did not drop (dropped=%d)", faulty.Dropped)
	}
	if faulty.Undeliverable != 0 {
		t.Fatalf("budget 64 exhausted %d times at p=0.3", faulty.Undeliverable)
	}
	if !reflect.DeepEqual(clean.Outputs, faulty.Outputs) {
		t.Fatal("retransmission did not converge to the fault-free outputs")
	}
	if faulty.Time <= clean.Time {
		t.Fatalf("retransmissions cost no time: %g <= %g", faulty.Time, clean.Time)
	}
}

// TestFaultBudgetExhaustionQuiesces: a zero budget turns every drop into
// an Undeliverable abandonment — the run must quiesce (not hang) and the
// abandoned link must remain usable for later traffic.
func TestFaultBudgetExhaustionQuiesces(t *testing.T) {
	g := graph.RandomConnected(40, 90, 13)
	mk := func(graph.NodeID) Handler { return &segSpray{} }
	fs := &FaultSchedule{Seed: 5, DropP: 0.4, Budget: 0}
	s := New(g, WithFaults(SeededRandom{Seed: 11}, fs), mk).KeepTrace()
	res := s.Run()
	if res.Undeliverable == 0 {
		t.Fatal("budget 0 at p=0.4 abandoned nothing")
	}
	if res.Dropped != res.Undeliverable {
		t.Fatalf("budget 0 retransmitted: dropped=%d undeliverable=%d", res.Dropped, res.Undeliverable)
	}
	if live := s.Arena().Live(); live != 0 {
		t.Fatalf("abandonment leaked %d segments", live)
	}
}

// TestFaultSteadyStateAllocs mirrors TestSpecRollbackSteadyStateAllocs
// for the drop/retransmit path: growing the message count across Reset
// cycles must not grow allocations, and every cycle must leave the arena
// empty — the exactly-once release pin for dropped-message segments.
func TestFaultSteadyStateAllocs(t *testing.T) {
	g := graph.Path(3)
	fs := &FaultSchedule{Seed: 31, DropP: 0.25, Budget: 64}
	adv := WithFaults(twoRate{}, fs)
	cycle := func(msgs int) func() {
		mk := func(graph.NodeID) Handler { return &pingChain{remaining: msgs} }
		s := New(g, adv, mk)
		res := s.Run()
		if res.Dropped == 0 || res.Retrans == 0 {
			t.Fatalf("workload did not exercise the drop path: %+v", summarize(res))
		}
		if res.Undeliverable != 0 {
			t.Fatalf("budget 64 exhausted %d times at p=0.25", res.Undeliverable)
		}
		return func() {
			s.Reset(adv, mk)
			if res := s.Run(); res.Msgs != uint64(2*msgs) {
				t.Fatalf("sent %d messages, want %d", res.Msgs, 2*msgs)
			}
			if live := s.Arena().Live(); live != 0 {
				t.Fatalf("cycle leaked %d segments", live)
			}
		}
	}
	const short, long = 200, 2200
	runShort := cycle(short)
	runLong := cycle(long)
	a1 := testing.AllocsPerRun(5, runShort)
	a2 := testing.AllocsPerRun(5, runLong)
	const slack = 8
	if extra := a2 - a1; extra > slack {
		t.Fatalf("the %d extra messages allocated %.1f times across Reset (%.4f allocs/msg); want 0",
			2*(long-short), extra, extra/float64(2*(long-short)))
	}
}

// FuzzFaultSchedule feeds fuzzer-chosen bytes into both the delay
// adversary and the fault schedule, then replays serially and in both
// parallel modes: Results must stay byte-identical and the arena must
// come back empty (dropped-message segments released exactly once).
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 128, 3, 9, 77})
	f.Add([]byte("fault tolerantly"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	g := graph.RandomConnected(24, 50, 11)
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := &FaultSchedule{Seed: 1}
		for i, b := range data {
			fs.Seed = fs.Seed*131 + uint64(b)
			switch i % 4 {
			case 0:
				fs.DropP = float64(b) / 512 // up to ~0.5
			case 1:
				fs.CrashP = float64(b) / 1024
			case 2:
				fs.LinkP = float64(b) / 1024
			case 3:
				fs.Budget = int(b) % 5
			}
		}
		if err := fs.Validate(); err != nil {
			t.Fatalf("derived schedule invalid: %v", err)
		}
		adv := WithFaults(fuzzDelays{data: data}, fs)
		mk := func(graph.NodeID) Handler { return &segSpray{} }
		serial := New(g, adv, mk).WithMode(ModeSingle).KeepTrace()
		want := stripSegHandles(serial.Run())
		if live := serial.Arena().Live(); live != 0 {
			t.Fatalf("serial leaked %d segments under %v", live, data)
		}
		for _, mode := range []ExecutionMode{ModeMulti, ModeSpec} {
			s := New(g, adv, mk).WithMode(mode).
				WithWorkers(3).WithMinParallel(1).KeepTrace()
			if got := stripSegHandles(s.Run()); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s Result differs from serial under fuzzed faults %v", mode, data)
			}
			if live := s.Arena().Live(); live != 0 {
				t.Fatalf("%s leaked %d segments under %v", mode, live, data)
			}
		}
	})
}

// TestFaultyAdversaryName: the combinator surfaces the schedule in the
// adversary name so experiment tables identify faulty rows.
func TestFaultyAdversaryName(t *testing.T) {
	fs := &FaultSchedule{Seed: 7, DropP: 0.05, Budget: 3}
	adv := WithFaults(Fixed{D: 1}, fs)
	if name := adv.Name(); !strings.Contains(name, "faults") || !strings.Contains(name, "drop:p=0.05") {
		t.Fatalf("Faulty name %q hides the schedule", name)
	}
	if adv.MinDelay() != (Fixed{D: 1}).MinDelay() {
		t.Fatal("Faulty changed MinDelay")
	}
}
