package outval

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	cases := []any{int(0), int(42), int(-7), int64(1 << 40), true, false, graph.NodeID(13)}
	for _, v := range cases {
		b := Encode(0, v)
		if b.Kind == 0 {
			t.Fatalf("Encode(%v) produced zero Kind", v)
		}
		if got := decode(b); got != v {
			t.Fatalf("round trip %v (%T) -> %v (%T)", v, v, got, got)
		}
	}
}

// TestNonEncodable: a value Output cannot encode panics, naming the
// node, the value's type and OutputBody.
func TestNonEncodable(t *testing.T) {
	for _, v := range []any{"string", 3.5, struct{ X int }{1}, nil} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"node 9", fmt.Sprintf("%T", v), "OutputBody"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("Encode(%v) panic %q does not name %q", v, msg, want)
					}
				}
			}()
			Encode(9, v)
		}()
	}
}

type testOut struct{ A, B int64 }

const kindTestOut wire.Kind = 0x7711

func init() {
	Register(kindTestOut, func(b wire.Body) any { return testOut{A: b.A, B: b.B} })
}

func TestRegisteredDecode(t *testing.T) {
	got := decode(wire.Body{Kind: kindTestOut, A: 3, B: -9})
	if got != (testOut{A: 3, B: -9}) {
		t.Fatalf("registered decode = %v", got)
	}
}

func TestDecodeUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Decode of unregistered kind should panic")
		}
	}()
	decode(wire.Body{Kind: 0x7999})
}

func TestRegisterReservedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a reserved kind should panic")
		}
	}()
	Register(kindInt, func(wire.Body) any { return nil })
}

// TestTableOverwrite: a slot moves between kinds, reads back the latest
// value each time, and reports its first output exactly once.
func TestTableOverwrite(t *testing.T) {
	var tb Table
	tb.Init(3)
	if tb.Has(1) {
		t.Fatal("fresh slot reports an output")
	}
	firsts := 0
	for _, step := range []struct {
		set  func() bool
		want any
	}{
		{func() bool { return tb.SetBody(1, wire.Body{Kind: kindInt, A: 7}) }, 7},
		{func() bool { return tb.SetBody(1, Int64(-7)) }, int64(-7)},
		{func() bool { return tb.SetBody(1, wire.Body{Kind: kindTestOut, A: 1, B: 2}) }, testOut{A: 1, B: 2}},
	} {
		if step.set() {
			firsts++
		}
		if got := tb.Map(10, 1)[11]; got != step.want || !tb.Has(1) {
			t.Fatalf("slot 1 reads %v (has %v), want %v", got, tb.Has(1), step.want)
		}
	}
	if firsts != 1 {
		t.Fatalf("first output reported %d times, want once", firsts)
	}
	if m := tb.Map(10, 1); len(m) != 1 {
		t.Fatalf("map has %d entries, want 1: %v", len(m), m)
	}
}

func TestTableZeroKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetBody with a zero Kind should panic")
		}
	}()
	var tb Table
	tb.Init(1)
	tb.SetBody(0, wire.Body{A: 1})
}

// filled returns a table with set slots of several kinds and empty ones.
func filled() *Table {
	tb := &Table{}
	tb.Init(6)
	tb.SetBody(0, wire.Body{Kind: kindBool, A: 1})
	tb.SetBody(2, Int64(1<<40))
	tb.SetBody(3, wire.Body{Kind: kindTestOut, A: -1, B: 4})
	tb.SetBody(5, wire.Body{Kind: kindNode, A: 2})
	return tb
}

// TestTableMapFanOut: every pool size decodes the same map as the inline
// loop, pools wider than the table (empty ranges) included, and a decoder
// panic on a worker reaches the caller.
func TestTableMapFanOut(t *testing.T) {
	tb := filled()
	want := tb.Map(10, 1)
	for _, w := range []int{2, 3, 6, 8} {
		if got := tb.Map(10, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("Map with %d workers = %v, want %v", w, got, want)
		}
	}
	var bad Table
	bad.Init(4)
	bad.SetBody(3, wire.Body{Kind: 0x7E55})
	defer func() {
		if recover() == nil {
			t.Fatal("a fanned-out Map of an unregistered kind should panic")
		}
	}()
	bad.Map(0, 2)
}

// TestTableMapFanOutAllocs pins a fanned-out Map, and DecodeDense, at one
// box per output plus a constant beyond the result map's own tables: the
// scratch column and the workers do not grow with the outputs, and both
// maps are sized once from the count of set slots.
func TestTableMapFanOutAllocs(t *testing.T) {
	const n = 1 << 14
	var tb Table
	tb.Init(n)
	for i := range n {
		tb.SetBody(i, Int64(int64(1000+i))) // past the runtime's cached small ints
	}
	tables := testing.AllocsPerRun(3, func() {
		m := make(map[graph.NodeID]any, n)
		for i := range n {
			m[graph.NodeID(i)] = nil
		}
	})
	fanned := testing.AllocsPerRun(3, func() { tb.Map(0, 4) })
	const slack = 16
	if extra := fanned - tables - n; extra > slack {
		t.Fatalf("fanned-out Map of %d outputs made %.0f allocations: %.0f beyond a box each and the map's %.0f, want at most %d",
			n, fanned, extra, tables, slack)
	}
	bodies, set := tb.Dense(false)
	dense := testing.AllocsPerRun(3, func() { DecodeDense(bodies, set) })
	if extra := dense - tables - n; extra > slack {
		t.Fatalf("DecodeDense of %d outputs made %.0f allocations: %.0f beyond a box each and the map's %.0f, want at most %d",
			n, dense, extra, tables, slack)
	}
}

// TestTableDenseMatchesMap: both dense forms — aliased and owned — decode
// to the map materialization, and only the owned one survives Reset.
func TestTableDenseMatchesMap(t *testing.T) {
	tb := filled()
	want := tb.Map(0, 1)
	for _, own := range []bool{false, true} {
		if got := DecodeDense(tb.Dense(own)); !reflect.DeepEqual(got, want) {
			t.Fatalf("own=%v: dense decodes to %v, map is %v", own, got, want)
		}
	}
	bodies, set := tb.Dense(true)
	tb.Reset()
	if !set[0] || bodies[0].Kind != kindBool {
		t.Fatal("owned dense slices changed when the table was reset")
	}
	var empty Table
	empty.Init(2)
	if bodies, set := empty.Dense(false); len(bodies) != 2 || len(set) != 2 {
		t.Fatalf("empty table's dense form: %d bodies, %d set", len(bodies), len(set))
	}
}

// TestTableFrameRecords: Record round-trips every slot and refuses to
// load a kind no decoder knows.
func TestTableFrameRecords(t *testing.T) {
	tb := filled()
	e := wire.NewEnc(nil)
	for i := range 6 {
		tb.Record(e.Coder(), i)
	}
	var back Table
	back.Init(6)
	d := wire.NewDec(e.Bytes(), nil)
	for i := range 6 {
		j := i
		if i == 4 {
			j = -1 // an empty record skips like any other
		}
		back.Record(d.Coder(), j)
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("load: err %v, %d bytes left", err, d.Remaining())
	}
	if got, want := back.Map(0, 1), tb.Map(0, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %v, want %v", got, want)
	}

	e = wire.NewEnc(nil)
	e.Bool(true)
	e.Body(wire.Body{Kind: 0x7998})
	var fresh Table
	fresh.Init(1)
	d = wire.NewDec(e.Bytes(), nil)
	fresh.Record(d.Coder(), 0)
	if d.Err() == nil || fresh.Has(0) {
		t.Fatal("Load accepted an output record of an unregistered kind")
	}
}

// TestTableResetKeepsSlabs: after Reset, refilling every slot allocates
// nothing.
func TestTableResetKeepsSlabs(t *testing.T) {
	var tb Table
	tb.Init(64)
	fill := func() {
		for i := range 64 {
			tb.SetBody(i, wire.Body{Kind: kindInt, A: int64(i)})
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, func() { tb.Reset(); fill() }); allocs != 0 {
		t.Fatalf("Reset + refill allocated %.0f times, want 0", allocs)
	}
	tb.Reset()
	if tb.Has(0) || len(tb.Map(0, 1)) != 0 {
		t.Fatal("Reset left an output behind")
	}
}

// TestTableConcurrentFirstWrites: workers racing to the first output
// agree on one slab, so every disjoint write survives (run it under
// -race).
func TestTableConcurrentFirstWrites(t *testing.T) {
	const workers, per = 8, 32
	var tb Table
	tb.Init(workers * per)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < workers*per; i += workers {
				if i%3 == 0 {
					tb.SetBody(i, Int64(int64(i)))
				} else {
					tb.SetBody(i, wire.Body{Kind: kindInt, A: int64(i)})
				}
			}
		}()
	}
	wg.Wait()
	m := tb.Map(0, 1)
	for i := range workers * per {
		want := any(i)
		if i%3 == 0 {
			want = int64(i)
		}
		if m[graph.NodeID(i)] != want {
			t.Fatalf("slot %d reads %v, want %v", i, m[graph.NodeID(i)], want)
		}
	}
}
