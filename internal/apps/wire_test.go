package apps

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/outval"
	"repro/internal/wire"
)

// TestOutputKindsBox: every output kind apps registers, mixed in one
// table, decodes through Map(0, 1), Map(0, 4) and DecodeDense to a value
// equal to the result it encodes, of its type and printing the same, and
// a value held past its maps survives collection.
func TestOutputKindsBox(t *testing.T) {
	var want []any
	var bodies []wire.Body
	for i := range 40 {
		id, far := graph.NodeID(i), graph.NodeID(i<<12)
		for _, o := range []struct {
			v any
			b wire.Body
		}{
			{BFSResult{Dist: i, Parent: id - 1, Source: far}, encBFSOut(BFSResult{Dist: i, Parent: id - 1, Source: far})},
			{TBFSResult{Dist: -i, Parent: far, Source: id}, encTBFSOut(TBFSResult{Dist: -i, Parent: far, Source: id})},
			{TBFSSourceDone{Frontier: i%2 == 0}, encTBFSSourceDone(TBFSSourceDone{Frontier: i%2 == 0})},
			{MSTResult{Frag: far, Parent: id}, encMSTOut(MSTResult{Frag: far, Parent: id})},
		} {
			want, bodies = append(want, o.v), append(bodies, o.b)
		}
	}
	var tb outval.Table
	tb.Init(len(bodies))
	for i, b := range bodies {
		tb.SetBody(i, b)
	}
	maps := []map[graph.NodeID]any{tb.Map(0, 1), tb.Map(0, 4), outval.DecodeDense(tb.Dense(false))}
	for j, m := range maps {
		for i, w := range want {
			got := m[graph.NodeID(i)]
			var same bool
			switch g := got.(type) {
			case BFSResult, TBFSResult, TBFSSourceDone, MSTResult:
				same = g == w
			}
			if !same || got != w || reflect.TypeOf(got) != reflect.TypeOf(w) || fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("map %d slot %d: %v (%T), want %v (%T)", j, i, got, got, w, w)
			}
		}
	}
	last := len(want) - 1
	held := maps[2][graph.NodeID(last)]
	maps = nil
	runtime.GC()
	runtime.GC()
	if held != want[last] {
		t.Fatalf("held value reads %v after collection, want %v", held, want[last])
	}
}

// TestLeaderCodecRoundTrips covers both leader-election kinds.
func TestLeaderCodecRoundTrips(t *testing.T) {
	ups := []leadUp{
		{Level: 0, Cluster: 0, Min: 0},
		{Level: 3, Cluster: 17, Min: 42},
		{Level: 9, Cluster: 1 << 20, Min: noCandidate},
	}
	for _, m := range ups {
		b := encLeadUp(m)
		if b.Kind != kindLeadUp {
			t.Fatalf("leadUp kind = %d", b.Kind)
		}
		if got := decLeadUp(b); got != m {
			t.Fatalf("leadUp round trip: %+v vs %+v", got, m)
		}
	}
	downs := []leadDown{
		{Level: 0, Cluster: 0, Min: 0, IsLeader: false},
		{Level: 5, Cluster: 9, Min: 3, IsLeader: true},
	}
	for _, m := range downs {
		b := encLeadDown(m)
		if b.Kind != kindLeadDown {
			t.Fatalf("leadDown kind = %d", b.Kind)
		}
		if got := decLeadDown(b); got != m {
			t.Fatalf("leadDown round trip: %+v vs %+v", got, m)
		}
	}
}

// TestMSTEdgeCodecRoundTrips covers the packed MOE/decision payloads,
// including the None identity whose phase shares a word with the flag.
func TestMSTEdgeCodecRoundTrips(t *testing.T) {
	cases := []struct {
		phase int
		e     mstEdge
	}{
		{1, mstEdge{W: 7, U: 0, V: 1}},
		{12, mstEdge{W: -1 << 40, U: 30000, V: 2}},
		{3, mstEdge{None: true}},
		{1 << 20, mstEdge{None: true}},
	}
	for _, k := range []wire.Kind{kindMSTMOE, kindMSTDecision} {
		for _, tc := range cases {
			b := encMSTEdge(k, tc.phase, tc.e)
			if b.Kind != k {
				t.Fatalf("kind = %d, want %d", b.Kind, k)
			}
			phase, e := decMSTEdge(b)
			if phase != tc.phase || e != tc.e {
				t.Fatalf("round trip: (%d, %+v) vs (%d, %+v)", phase, e, tc.phase, tc.e)
			}
		}
	}
}

// FuzzLeaderCodec fuzzes the leadDown codec (the widest payload: four
// words including a flag).
func FuzzLeaderCodec(f *testing.F) {
	f.Add(0, int64(0), int64(0), false)
	f.Add(7, int64(123), int64(5), true)
	f.Fuzz(func(t *testing.T, level int, cluster, min int64, isLeader bool) {
		if level < 0 {
			return
		}
		m := leadDown{Level: level, Cluster: cover.ClusterID(cluster), Min: graph.NodeID(min), IsLeader: isLeader}
		if got := decLeadDown(encLeadDown(m)); got != m {
			t.Fatalf("round trip: %+v vs %+v", got, m)
		}
	})
}

// FuzzMSTEdgeCodec fuzzes the packed edge payload: the phase/None packing
// must never lose or invent an edge.
func FuzzMSTEdgeCodec(f *testing.F) {
	f.Add(1, int64(9), int64(0), int64(1), false)
	f.Add(30, int64(-1), int64(7), int64(8), true)
	f.Fuzz(func(t *testing.T, phase int, w, u, v int64, none bool) {
		if phase < 0 || phase > 1<<40 {
			return
		}
		e := mstEdge{W: w, U: graph.NodeID(u), V: graph.NodeID(v), None: none}
		if none {
			e = mstEdge{None: true} // canonical identity: W/U/V are meaningless
		}
		gotPhase, gotE := decMSTEdge(encMSTEdge(kindMSTMOE, phase, e))
		if gotPhase != phase || gotE != e {
			t.Fatalf("round trip: (%d, %+v) vs (%d, %+v)", gotPhase, gotE, phase, e)
		}
	})
}

// TestStateCodecRefusesNonCanonicalLists: a map whose keys do not ascend
// strictly — a node set, a Leader's or an MST's per-phase state, an MST
// phase's tests, a send queue — or a queue target holding no message, is
// not what SaveState writes, so LoadState must refuse it rather than
// accept bytes it would save back differently.
func TestStateCodecRefusesNonCanonicalLists(t *testing.T) {
	ids := func(e *wire.Enc, vs []int32) {
		e.U32(uint32(len(vs)))
		for _, v := range vs {
			e.I32(v)
		}
	}
	leader := func(levels ...int) []byte {
		var e wire.Enc
		e.Int(1)
		e.Bool(true)
		e.Bool(false)
		e.U32(uint32(len(levels)))
		for _, l := range levels {
			e.Int(l)
			e.I64(7)
			e.Int(2)
			e.I32(3)
			e.Bool(true)
			e.Bool(true)
			e.Bool(false)
		}
		e.U32(0) // send queue
		return e.Bytes()
	}
	type mstFrame struct {
		treeNbrs, tests []int32
		phases, bars    []int
	}
	mst := func(f mstFrame) []byte {
		var e wire.Enc
		none := mstEdge{None: true}
		e.I32(2)
		e.I32(-1)
		ids(&e, f.treeNbrs)
		e.Int(1)
		e.Bool(false)
		e.U32(uint32(len(f.phases)))
		for _, k := range f.phases {
			e.Int(k)
			e.U32(uint32(len(f.tests)))
			for _, nb := range f.tests {
				e.I32(nb)
				e.I32(nb + 10)
			}
			e.Int(0)
			none.state(e.Coder())
			e.Bool(false)
			e.Bool(false)
			none.state(e.Coder())
			e.Bool(false)
			e.I32(-1)
			ids(&e, f.treeNbrs) // connectIn
			e.Bool(false)
			e.Bool(false)
		}
		e.U32(uint32(len(f.bars)))
		for _, b := range f.bars {
			e.Int(b)
			e.Int(1)
			e.Bool(true)
			e.Bool(false)
			e.Bool(false)
		}
		e.U32(0) // send queue
		return e.Bytes()
	}
	ok := mstFrame{treeNbrs: []int32{3, 5}, tests: []int32{1, 4}, phases: []int{1, 2}, bars: []int{2, 3}}
	with := func(edit func(*mstFrame)) []byte {
		f := ok
		edit(&f)
		return mst(f)
	}
	for _, tc := range []struct {
		name string
		h    wire.StateCodec
		b    []byte
		ok   bool
	}{
		{"leader ascending", &Leader{}, leader(2, 5), true},
		{"leader descending", &Leader{}, leader(5, 2), false},
		{"leader repeated key", &Leader{}, leader(5, 5), false},
		{"mst ascending", &MST{}, mst(ok), true},
		{"mst node set descending", &MST{}, with(func(f *mstFrame) { f.treeNbrs = []int32{5, 3} }), false},
		{"mst node set repeated", &MST{}, with(func(f *mstFrame) { f.treeNbrs = []int32{3, 3} }), false},
		{"mst phases descending", &MST{}, with(func(f *mstFrame) { f.phases = []int{2, 1} }), false},
		{"mst tests descending", &MST{}, with(func(f *mstFrame) { f.tests = []int32{4, 1} }), false},
		{"mst bars descending", &MST{}, with(func(f *mstFrame) { f.bars = []int{3, 2} }), false},
	} {
		d := wire.NewDec(tc.b, nil)
		tc.h.LoadState(d)
		if (d.Err() == nil) != tc.ok {
			t.Errorf("%s: err %v", tc.name, d.Err())
		}
		if tc.ok {
			var e wire.Enc
			tc.h.SaveState(&e)
			if d.Remaining() != 0 || !bytes.Equal(e.Bytes(), tc.b) {
				t.Errorf("%s: saves back differently", tc.name)
			}
		}
	}
	queue := func(targets ...int32) []byte {
		var e wire.Enc
		e.U32(uint32(len(targets)))
		for _, to := range targets {
			e.I32(to)
			if to < 0 {
				e.U32(0)
				continue
			}
			e.U32(1)
			e.Body(wire.Tag(1))
		}
		return e.Bytes()
	}
	for _, tc := range []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"ascending", queue(1, 4), true},
		{"descending", queue(4, 1), false},
		{"empty target", queue(-1), false},
	} {
		var q sendQueue
		d := wire.NewDec(tc.b, nil)
		q.state(d.Coder())
		if (d.Err() == nil) != tc.ok {
			t.Errorf("send queue %s: err %v", tc.name, d.Err())
		}
		if tc.ok {
			var e wire.Enc
			q.state(e.Coder())
			if !bytes.Equal(e.Bytes(), tc.b) {
				t.Errorf("send queue %s: saves back differently", tc.name)
			}
		}
	}
}
