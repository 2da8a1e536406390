package wire

import (
	"bytes"
	"cmp"
	"maps"
	"runtime"
	"testing"

	"repro/internal/slab"
)

// set codes an entry of a map[int32]bool set: the key alone.
func set(c *Coder, k *int32, v *bool) {
	c.I32(k)
	*v = true
}

// nested codes a map of sets, the shape of an MST's per-phase node sets.
func nested(c *Coder, m *map[int32]map[int32]bool) {
	Map(c, m, cmp.Compare, func(c *Coder, k *int32, s *map[int32]bool) {
		c.I32(k)
		Map(c, s, cmp.Compare, set)
	})
}

// keys writes a key-only map frame with its keys in the given order.
func keys(ks ...int32) []byte {
	var e Enc
	e.U32(uint32(len(ks)))
	for _, k := range ks {
		e.I32(k)
	}
	return e.Bytes()
}

// every is one field per Coder method and List, the shape a state method
// codes; TestMapRoundTrip covers Map.
type every struct {
	u8    uint8
	flag  bool
	u32   uint32
	i32   int32
	u64   uint64
	i64   int64
	n     int
	f     float64
	str   string
	body  Body
	raw   Body
	id    nodeID
	list  []Body
	items []int32
	sub   StateCodec
	rows  []byte
	frame []byte
	sect  []int32
}

type nodeID int32

func (v *every) state(c *Coder, sl *slab.Slab[int32], rows *slab.Slab[byte]) {
	c.U8(&v.u8)
	c.Bool(&v.flag)
	c.U32(&v.u32)
	c.I32(&v.i32)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.Int(&v.n)
	c.F64(&v.f)
	c.Str(&v.str)
	c.Body(&v.body)
	c.RawBody(&v.raw)
	ID(c, &v.id)
	List(c, &v.list, nil, (*Coder).Body)
	List(c, &v.items, sl, (*Coder).I32)
	c.Nested(v.sub)
	c.Raw(&v.rows, 3, rows)
	c.Bytes(&v.frame)
	// A section without a count: its blob's length bounds the load.
	c.Blob(func(c *Coder) {
		if c.Loading() {
			v.sect = v.sect[:0]
		}
		for i := 0; i < len(v.sect) || c.More(); i++ {
			if c.Loading() {
				v.sect = append(v.sect, 0)
			}
			c.I32(&v.sect[i])
		}
	})
}

// TestCoderRoundTrip: every Coder method writes what the matching Enc
// method writes, and loads it back into a zero value that saves the same
// bytes; a flag byte other than 0 or 1 fails the load.
func TestCoderRoundTrip(t *testing.T) {
	var sl slab.Slab[int32]
	var rows slab.Slab[byte]
	in := every{u8: 7, flag: true, u32: 1 << 31, i32: -3, u64: 1 << 63, i64: 1 << 40, n: -9, f: 2.5, str: "adv",
		body: Body{Kind: 4, A: 5, B: 6}, raw: Body{Kind: 5, Seg: Seg{off: 9, n: 2}}, id: 11,
		list: []Body{{Kind: 1}, {A: 2}}, items: []int32{8, 9, 10},
		sub: fixedCodec{save: 2, load: 2}, rows: []byte{1, 2, 3}, frame: []byte{4, 5}, sect: []int32{-1, 6}}
	var e Enc
	in.state(e.Coder(), &sl, &rows)

	var want Enc
	want.U8(7)
	want.Bool(true)
	want.U32(1 << 31)
	want.I32(-3)
	want.U64(1 << 63)
	want.I64(1 << 40)
	want.Int(-9)
	want.F64(2.5)
	want.Str("adv")
	want.Body(in.body)
	want.RawBody(in.raw)
	want.I32(11)
	want.U32(2)
	want.Body(in.list[0])
	want.Body(in.list[1])
	want.Raw([]byte{3, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 10, 0, 0, 0})
	want.Raw([]byte{2, 0, 0, 0, 0, 0}) // the nested blob: its length, two zero bytes
	want.Raw([]byte{1, 2, 3})
	want.U32(2)
	want.Raw([]byte{4, 5})
	mark := want.BeginBlob()
	want.I32(-1)
	want.I32(6)
	want.EndBlob(mark)
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("saved\n% x\nwant\n% x", e.Bytes(), want.Bytes())
	}

	var out every
	out.sub = in.sub
	d := NewDec(e.Bytes(), nil)
	if out.state(d.Coder(), &sl, &rows); d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("load: %v, %d bytes left", d.Err(), d.Remaining())
	}
	var again Enc
	out.state(again.Coder(), &sl, &rows)
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatalf("loaded value saves\n% x\nwant\n% x", again.Bytes(), e.Bytes())
	}

	bad := bytes.Clone(e.Bytes())
	bad[1] = 2 // the flag byte
	d = NewDec(bad, nil)
	if out.state(d.Coder(), &sl, &rows); d.Err() == nil {
		t.Fatal("flag byte 2 accepted")
	}
}

// TestCoderFailPanicsOnSave: a load reports a failed semantic check through
// the decoder; a save has no error to report, so it panics.
func TestCoderFailPanicsOnSave(t *testing.T) {
	d := NewDec(nil, nil)
	if d.Coder().Fail("bad %d", 1); d.Err() == nil || !d.Coder().Failed() {
		t.Fatal("Fail did not fail the load")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fail on a save did not panic")
		}
	}()
	var e Enc
	e.Coder().Fail("bad")
}

// TestMapRoundTrip: Map writes the entries in ascending key order whatever
// the map's iteration order, and reads back an equal map that saves
// identically — nested maps included.
func TestMapRoundTrip(t *testing.T) {
	s := map[int32]bool{9: true, -4: true, 0: true, 7: true}
	var e Enc
	Map(e.Coder(), &s, cmp.Compare, set)
	if want := keys(-4, 0, 7, 9); !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("Map wrote % x, want % x", e.Bytes(), want)
	}
	d := NewDec(e.Bytes(), nil)
	var got map[int32]bool
	if Map(d.Coder(), &got, cmp.Compare, set); d.Err() != nil || d.Remaining() != 0 || !maps.Equal(got, s) {
		t.Fatalf("Map loaded %v (%v, %d bytes left), want %v", got, d.Err(), d.Remaining(), s)
	}

	in := map[int32]map[int32]bool{3: {5: true, 1: true}, 1: {}, 2: {8: true}}
	e.Reset()
	nested(e.Coder(), &in)
	d = NewDec(e.Bytes(), nil)
	var out map[int32]map[int32]bool
	if nested(d.Coder(), &out); d.Err() != nil || d.Remaining() != 0 || !maps.EqualFunc(out, in, maps.Equal) {
		t.Fatalf("nested Map loaded %v (%v), want %v", out, d.Err(), in)
	}
	var again Enc
	nested(again.Coder(), &out)
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatal("nested map saves back differently")
	}

	d = NewDec(keys(), nil)
	var empty map[int32]bool
	if Map(d.Coder(), &empty, cmp.Compare, set); d.Err() != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("empty Map loaded %#v, %v; want a non-nil empty map", empty, d.Err())
	}
}

// TestLoadMapRefusesNonAscendingKeys: an equal or a descending key is not
// what a save writes, so loading fails the decoder on it and does not
// insert it.
func TestLoadMapRefusesNonAscendingKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"equal", keys(1, 4, 4)},
		{"descending", keys(1, 4, 2)},
	} {
		d := NewDec(tc.b, nil)
		var m map[int32]bool
		if Map(d.Coder(), &m, cmp.Compare, set); d.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if want := map[int32]bool{1: true, 4: true}; !maps.Equal(m, want) {
			t.Errorf("%s: map %v, want only the entries before the bad key %v", tc.name, m, want)
		}
	}
	// The inner map's order is checked too.
	var e Enc
	e.U32(1)
	e.I32(0)
	e.Raw(keys(6, 5))
	d := NewDec(e.Bytes(), nil)
	var m map[int32]map[int32]bool
	if nested(d.Coder(), &m); d.Err() == nil {
		t.Error("nested map with descending inner keys accepted")
	}
}

// TestLoadMapHostileCount: a count of 2^31 on a 10-byte input fails the
// decoder before a map is sized or a list grown past the input.
func TestLoadMapHostileCount(t *testing.T) {
	var e Enc
	e.U32(1 << 31)
	e.Raw(make([]byte, 6))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDec(e.Bytes(), nil)
	var m map[int32]bool
	Map(d.Coder(), &m, cmp.Compare, set)
	runtime.ReadMemStats(&after)
	if d.Err() == nil {
		t.Fatal("a map count past the input was accepted")
	}
	if len(m) != 0 {
		t.Fatalf("map holds %d entries, want none", len(m))
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("Map allocated %d bytes for a 10-byte input", n)
	}

	d = NewDec(e.Bytes(), nil)
	var s []int32
	if List(d.Coder(), &s, nil, (*Coder).I32); d.Err() == nil || len(s) != 0 {
		t.Fatalf("a list count past the input loaded %d elements (err %v)", len(s), d.Err())
	}
}

// TestLoadMapDropsFailedEntry: an entry or element whose decode fails is
// not kept, even though its key decoded.
func TestLoadMapDropsFailedEntry(t *testing.T) {
	var e Enc
	e.U32(2)
	e.I32(1)
	e.U64(10)
	e.I32(2)
	e.U32(0) // truncated value
	d := NewDec(e.Bytes(), nil)
	var m map[int32]int64
	Map(d.Coder(), &m, cmp.Compare, func(c *Coder, k *int32, v *int64) {
		c.I32(k)
		c.I64(v)
	})
	if d.Err() == nil {
		t.Fatal("truncated entry accepted")
	}
	if want := map[int32]int64{1: 10}; !maps.Equal(m, want) {
		t.Fatalf("map %v, want %v", m, want)
	}

	type pair struct {
		k int32
		v int64
	}
	d = NewDec(e.Bytes(), nil)
	s := []pair{{7, 7}, {8, 8}, {9, 9}}
	List(d.Coder(), &s, nil, func(c *Coder, p *pair) {
		c.I32(&p.k)
		c.I64(&p.v)
	})
	if d.Err() == nil || len(s) != 1 || s[0] != (pair{1, 10}) {
		t.Fatalf("list %v (err %v), want only the first element", s, d.Err())
	}
}

// fixedCodec saves save bytes and loads load bytes: a codec whose load
// reads exactly, less or more than its save wrote.
type fixedCodec struct{ save, load int }

func (c fixedCodec) SaveState(e *Enc) {
	for range c.save {
		e.U8(0)
	}
}
func (c fixedCodec) LoadState(d *Dec) { d.Raw(c.load) }

// TestNestedRefusesMisreadBlob: Nested accepts a nested codec only if it
// consumes its blob exactly; one that under-reads or over-reads fails the
// decoder even when the bytes it read were there.
func TestNestedRefusesMisreadBlob(t *testing.T) {
	for _, tc := range []struct {
		name string
		load int
		ok   bool
	}{
		{"exact", 4, true},
		{"under-read", 3, false},
		{"over-read", 5, false},
	} {
		var e Enc
		e.Coder().Nested(fixedCodec{save: 4})
		e.U64(0) // bytes an over-read can reach
		d := NewDec(e.Bytes(), nil)
		d.Coder().Nested(fixedCodec{load: tc.load})
		if (d.Err() == nil) != tc.ok {
			t.Errorf("%s: err %v", tc.name, d.Err())
		}
		if tc.ok && d.Remaining() != 8 {
			t.Errorf("%s: %d bytes left after the blob, want 8", tc.name, d.Remaining())
		}
	}
}

// TestBlobBoundsItsSection: a Blob section's load reads the blob's bytes
// and no further — More turns false at its end, and a read past it fails
// even when the bytes are there — and must consume them all.
func TestBlobBoundsItsSection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reads int
		ok    bool
	}{
		{"exact", 2, true},
		{"under-read", 1, false},
		{"over-read", 3, false},
	} {
		var e Enc
		e.Coder().Blob(func(c *Coder) {
			for v := int32(0); v < 2; v++ {
				c.I32(&v)
			}
		})
		e.U64(0) // bytes an over-read could reach
		d := NewDec(e.Bytes(), nil)
		more := 0
		d.Coder().Blob(func(c *Coder) {
			for i := 0; i < tc.reads; i++ {
				if c.More() {
					more++
				}
				var v int32
				c.I32(&v)
			}
		})
		if (d.Err() == nil) != tc.ok || more != min(tc.reads, 2) {
			t.Errorf("%s: err %v, More true %d times", tc.name, d.Err(), more)
		}
		if tc.ok && d.Remaining() != 8 {
			t.Errorf("%s: %d bytes left after the blob, want 8", tc.name, d.Remaining())
		}
	}
}

// TestBodyRefusesWordlessHandle: a Body image whose segment has no words
// but a nonzero handle is one Enc.Body never writes (a handle with no
// words is the zero Seg), so Body and SkipBody refuse it instead of
// loading a body that saves back differently.
func TestBodyRefusesWordlessHandle(t *testing.T) {
	var e Enc
	e.RawBody(Body{Kind: 1, Seg: Seg{off: 1 << 20}})
	var a Arena
	if d := NewDec(e.Bytes(), &a); d.Body() != (Body{}) || d.Err() == nil {
		t.Errorf("Body accepted a wordless handle: err %v", d.Err())
	}
	if d := NewDec(e.Bytes(), &a); d.SkipBody() != nil || d.Err() == nil {
		t.Errorf("SkipBody accepted a wordless handle: err %v", d.Err())
	}
}

// TestCoderDoesNotAllocate: a save and a load through a retained Enc/Dec
// pair cost no allocation — taking the coder, every scalar, a nested blob,
// raw rows and lists refilled within their capacity.
func TestCoderDoesNotAllocate(t *testing.T) {
	var sl slab.Slab[int32]
	var rows slab.Slab[byte]
	v := every{list: []Body{{Kind: 1}, {A: 2}}, items: []int32{8, 9}, sub: fixedCodec{save: 8, load: 8}, rows: []byte{1, 2, 3},
		frame: []byte{4}, sect: []int32{5, 6}}
	var e Enc
	var d Dec
	round := func() {
		e.Reset()
		v.state(e.Coder(), &sl, &rows)
		d.Reset(e.Bytes(), nil)
		v.state(d.Coder(), &sl, &rows)
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 || d.Err() != nil {
		t.Fatalf("a coder round allocates %.1f times (err %v)", avg, d.Err())
	}
}
