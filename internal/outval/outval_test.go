package outval

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// testNone is a zero-size output, testWide an eight-word one.
type (
	testNone struct{}
	testWide [8]int64
)

const (
	kindTestOut  wire.Kind = 0x7711
	kindTestNone wire.Kind = 0x7712
	kindTestWide wire.Kind = 0x7713
)

func decTestOut(b wire.Body) testOut   { return testOut{A: b.A, B: b.B} }
func decTestNone(wire.Body) testNone   { return testNone{} }
func decTestWide(b wire.Body) testWide { return testWide{b.A, b.B, b.C, b.D, -b.A, -b.B, -b.C, -b.D} }

func init() {
	Register(kindTestOut, decTestOut)
	Register(kindTestNone, decTestNone)
	Register(kindTestWide, decTestWide)
}

// decode is the value a Result boundary hands out for one body: the
// one-slot Map.
func decode(b wire.Body) any {
	var tb Table
	tb.Init(1)
	tb.SetBody(0, b)
	return tb.Map(0, 1)[0]
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

// refuse checks that registering an output of type T panics and leaves
// kind k unregistered.
func refuse[T any](t *testing.T, k wire.Kind) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("Register(%d, %v) succeeded", k, reflect.TypeFor[T]())
		}
		if k != kindTestOut && Known(k) {
			t.Errorf("refused Register(%d, %v) left the kind registered", k, reflect.TypeFor[T]())
		}
	}()
	Register(k, func(wire.Body) T { var zero T; return zero })
}

// TestRegisterRefusesPointerTypes: kind 0, a repeated kind and every
// output type that holds a pointer, however deep, are refused.
func TestRegisterRefusesPointerTypes(t *testing.T) {
	const k = 0x7A01
	refuse[int64](t, 0)
	refuse[testOut](t, kindTestOut)
	refuse[*int64](t, k)
	refuse[unsafe.Pointer](t, k)
	refuse[string](t, k)
	refuse[[]int64](t, k)
	refuse[map[int]int](t, k)
	refuse[chan int](t, k)
	refuse[func()](t, k)
	refuse[any](t, k)
	refuse[[2]string](t, k)
	refuse[struct{ P *int }](t, k)
	refuse[struct {
		A    int64
		Tail struct{ S []byte }
	}](t, k)
}

// checkBoxes decodes bodies, all of dec's kind, through Map(0, 1),
// Map(0, 4) and DecodeDense, and checks every value against any(dec(b)):
// ==, reflect.TypeOf, %v and a type switch. Then it holds one value, drops
// the maps and everything else that reaches its chunk, collects twice,
// churns the heap and reads the value back.
func checkBoxes[T comparable](t *testing.T, dec func(wire.Body) T, bodies ...wire.Body) {
	t.Helper()
	var tb Table
	tb.Init(len(bodies))
	for i, b := range bodies {
		tb.SetBody(i, b)
	}
	maps := []map[graph.NodeID]any{tb.Map(0, 1), tb.Map(0, 4), DecodeDense(tb.Dense(false))}
	for i, b := range bodies {
		want := any(dec(b))
		for j, m := range maps {
			got := m[graph.NodeID(i)]
			switch got.(type) {
			case T:
			default:
				t.Fatalf("map %d slot %d: %v is a %T, not a %v", j, i, got, got, reflect.TypeFor[T]())
			}
			if got != want || reflect.TypeOf(got) != reflect.TypeOf(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("map %d slot %d: %v (%T), want %v (%T)", j, i, got, got, want, want)
			}
		}
	}
	last := len(bodies) - 1
	held, want := maps[1][graph.NodeID(last)], any(dec(bodies[last]))
	maps = nil
	runtime.GC()
	runtime.GC()
	churn := make([][]byte, 256)
	for i := range churn {
		churn[i] = bytes.Repeat([]byte{0xA5}, len(bodies)*int(reflect.TypeFor[T]().Size())+1)
	}
	if held != want {
		t.Fatalf("held value reads %v after collection, want %v", held, want)
	}
	runtime.KeepAlive(churn)
}

// TestBoxesMatchDecoders covers every kind outval registers — each
// primitive below and above the runtime's cached small values — and the
// test kinds, zero-size and eight-word ones included.
func TestBoxesMatchDecoders(t *testing.T) {
	vals := []int64{0, 1, 7, 255, 256, 300, 1 << 20, 1 << 40, -1, -300}
	each := func(enc func(int64) wire.Body) []wire.Body {
		var bs []wire.Body
		for _, v := range vals {
			bs = append(bs, enc(v))
		}
		return bs
	}
	checkBoxes(t, func(b wire.Body) int { return int(b.A) }, each(func(v int64) wire.Body { return Encode(0, int(v)) })...)
	checkBoxes(t, func(b wire.Body) int64 { return b.A }, each(Int64)...)
	checkBoxes(t, func(b wire.Body) bool { return b.A != 0 }, each(func(v int64) wire.Body { return Encode(0, v&1 == 1) })...)
	checkBoxes(t, func(b wire.Body) graph.NodeID { return graph.NodeID(b.A) },
		each(func(v int64) wire.Body { return Encode(0, graph.NodeID(v)) })...)
	checkBoxes(t, decTestOut, each(func(v int64) wire.Body { return wire.Body{Kind: kindTestOut, A: v, B: ^v} })...)
	checkBoxes(t, decTestNone, each(func(int64) wire.Body { return wire.Body{Kind: kindTestNone} })...)
	checkBoxes(t, decTestWide, each(func(v int64) wire.Body { return wire.Body{Kind: kindTestWide, A: v, B: 2 * v, C: 3, D: -v} })...)
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

// TestTableMapFanOutAllocs pins Map, at one and four workers, and
// DecodeDense at a constant beyond the result map's own tables and the
// chunks: one per worker, kind and set bit of the kind's count in the
// worker's range. Neither the scratch column nor the workers grow with the
// outputs.
func TestTableMapFanOutAllocs(t *testing.T) {
	const n = 1 << 14
	tables := testing.AllocsPerRun(3, func() {
		m := make(map[graph.NodeID]any, n)
		for i := range n {
			m[graph.NodeID(i)] = nil
		}
	})
	const slack = 16
	for _, enc := range []func(i int) wire.Body{
		func(i int) wire.Body { return Int64(int64(1000 + i)) }, // past the runtime's cached small ints
		func(i int) wire.Body { return wire.Body{Kind: kindTestOut, A: int64(i), B: int64(i - 1)} },
		func(i int) wire.Body { // both kinds, interleaved
			if i%3 == 0 {
				return Int64(int64(1000 + i))
			}
			return wire.Body{Kind: kindTestOut, A: int64(i)}
		},
	} {
		var tb Table
		tb.Init(n)
		for i := range n {
			tb.SetBody(i, enc(i))
		}
		bodies, set := tb.Dense(false)
		chunks := func(w int) (c int) {
			for k := range w {
				count := map[wire.Kind]uint{}
				for _, b := range bodies[k*n/w : (k+1)*n/w] {
					count[b.Kind]++
				}
				for _, m := range count {
					c += bits.OnesCount(m)
				}
			}
			return c
		}
		for _, c := range []struct {
			name    string
			workers int
			run     func()
		}{
			{"Map(0, 1)", 1, func() { tb.Map(0, 1) }},
			{"Map(0, 4)", 4, func() { tb.Map(0, 4) }},
			{"DecodeDense", 1, func() { DecodeDense(bodies, set) }},
		} {
			got := testing.AllocsPerRun(3, c.run)
			if bound := tables + float64(chunks(c.workers)+slack); got > bound {
				t.Errorf("%s of %d %v outputs made %.0f allocations, want at most %.0f (the map's %.0f, %d chunks, %d slack)",
					c.name, n, decode(enc(0)), got, bound, tables, chunks(c.workers), slack)
			}
		}
	}
}

// TestTableMapBytes: a decoded map's chunks hold n 16-byte values in
// n × 16 bytes. Map(0, 1) and DecodeDense allocate no more than that and a
// constant beyond the map's own tables, however n rounds to the allocator's
// size classes or pages (one chunk of n values would round 1600 × 16 bytes
// up to the 27 264-byte class).
func TestTableMapBytes(t *testing.T) {
	for _, n := range []int{1600, 5000, 1<<14 + 100} {
		var tb Table
		tb.Init(n)
		for i := range n {
			tb.SetBody(i, wire.Body{Kind: kindTestOut, A: int64(i)})
		}
		tables := allocBytes(func() {
			m := make(map[graph.NodeID]any, n)
			for i := range n {
				m[graph.NodeID(i)] = nil
			}
		})
		const slack = 256
		for name, run := range map[string]func(){
			"Map(0, 1)":   func() { tb.Map(0, 1) },
			"DecodeDense": func() { DecodeDense(tb.Dense(false)) },
		} {
			if extra := allocBytes(run) - tables - 16*n; extra > slack {
				t.Errorf("%s of %d outputs allocated %d bytes beyond the map's %d and 16 per output, want at most %d",
					name, n, extra, tables, slack)
			}
		}
	}
}

// allocBytes is the fewest heap bytes, as the allocator rounds them, that
// one of three calls of fn allocated.
func allocBytes(fn func()) int {
	least := math.MaxInt
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, int(after.TotalAlloc-before.TotalAlloc))
	}
	return least
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

// fuzzKinds are the kinds FuzzTableMapVsDecode mixes, each with its value
// decoded and boxed on its own.
var fuzzKinds = []struct {
	kind wire.Kind
	want func(b wire.Body) any
}{
	{kindInt, func(b wire.Body) any { return int(b.A) }},
	{kindInt64, func(b wire.Body) any { return b.A }},
	{kindBool, func(b wire.Body) any { return b.A != 0 }},
	{kindNode, func(b wire.Body) any { return graph.NodeID(b.A) }},
	{kindTestOut, func(b wire.Body) any { return decTestOut(b) }},
	{kindTestNone, func(b wire.Body) any { return decTestNone(b) }},
	{kindTestWide, func(b wire.Body) any { return decTestWide(b) }},
}

// FuzzTableMapVsDecode: Map at the fuzzer's worker count and DecodeDense
// equal a per-slot decode of every set slot, and after Reset and a refill
// with another kind mix the new maps do too while the first ones still
// read their old values, so no chunk is shared across calls. The first
// two bytes choose n ≤ 512, the third the base and w in 1…4, and each
// slot's byte (zero past the end) its has-bit, kind and value.
func FuzzTableMapVsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 3, 1, 3, 5, 7, 9, 11, 13, 15, 17})
	f.Add([]byte{0, 2, 0xFE, 0xFF, 0x81, 0x13})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n := (int(at(0)) | int(at(1))<<8) % 513
		base, w := graph.NodeID(at(2)>>2), 1+int(at(2))%4
		var tb Table
		tb.Init(n)
		check := func(round int) []map[graph.NodeID]any {
			want := map[graph.NodeID]any{}
			for i := range n {
				b := at(3 + i)
				if (b>>round)&1 == 0 {
					continue
				}
				fk := fuzzKinds[(int(b>>2)+round)%len(fuzzKinds)]
				body := wire.Body{Kind: fk.kind, A: int64(b)<<(i%40) - 128, B: int64(i), C: int64(round), D: -int64(i)}
				if fk.kind == kindBool {
					body.A = int64(b>>round) & 2 >> 1
				}
				tb.SetBody(i, body)
				want[graph.NodeID(i)] = fk.want(body)
			}
			got := []map[graph.NodeID]any{tb.Map(base, w), DecodeDense(tb.Dense(false))}
			for j, m := range got {
				off := base
				if j == 1 {
					off = 0
				}
				if len(m) != len(want) {
					t.Fatalf("round %d map %d: %d values, want %d", round, j, len(m), len(want))
				}
				for v, x := range want {
					if y := m[v+off]; y != x {
						t.Fatalf("round %d map %d slot %d: %v (%T), want %v (%T)", round, j, v, y, y, x, x)
					}
				}
			}
			return append(got, want)
		}
		first := check(0)
		tb.Reset()
		check(1)
		for v, x := range first[2] {
			if y := first[0][v+base]; y != x {
				t.Fatalf("after a refill, the first Map's slot %d reads %v, want %v", v, y, x)
			}
			if y := first[1][v]; y != x {
				t.Fatalf("after a refill, the first DecodeDense's slot %d reads %v, want %v", v, y, x)
			}
		}
	})
}
