package wire

import (
	"bytes"
	"cmp"
	"maps"
	"runtime"
	"testing"
)

// putKey and getKey are the entry codec of a map[int32]bool set: the key
// alone.
func putKey(e *Enc, k int32, _ bool) { e.I32(k) }

func getKey(d *Dec) (int32, bool) { return d.I32(), true }

// saveNested and loadNested are the codec of a map of sets, the shape of
// an MST's per-phase node sets.
func saveNested(e *Enc, m map[int32]map[int32]bool) {
	SaveMap(e, m, cmp.Compare, func(e *Enc, k int32, set map[int32]bool) {
		e.I32(k)
		SaveMap(e, set, cmp.Compare, putKey)
	})
}

func loadNested(d *Dec) map[int32]map[int32]bool {
	return LoadMap(d, cmp.Compare, func(d *Dec) (int32, map[int32]bool) {
		return d.I32(), LoadMap(d, cmp.Compare, getKey)
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

// TestMapRoundTrip: SaveMap writes the entries in ascending key order
// whatever the map's iteration order, and LoadMap reads back an equal map
// that saves identically — nested maps included.
func TestMapRoundTrip(t *testing.T) {
	set := map[int32]bool{9: true, -4: true, 0: true, 7: true}
	var e Enc
	SaveMap(&e, set, cmp.Compare, putKey)
	if want := keys(-4, 0, 7, 9); !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("SaveMap wrote % x, want % x", e.Bytes(), want)
	}
	d := NewDec(e.Bytes(), nil)
	if got := LoadMap(d, cmp.Compare, getKey); d.Err() != nil || d.Remaining() != 0 || !maps.Equal(got, set) {
		t.Fatalf("LoadMap = %v (%v, %d bytes left), want %v", got, d.Err(), d.Remaining(), set)
	}

	nested := map[int32]map[int32]bool{3: {5: true, 1: true}, 1: {}, 2: {8: true}}
	e.Reset()
	saveNested(&e, nested)
	d = NewDec(e.Bytes(), nil)
	got := loadNested(d)
	if d.Err() != nil || d.Remaining() != 0 || !maps.EqualFunc(got, nested, maps.Equal) {
		t.Fatalf("nested LoadMap = %v (%v), want %v", got, d.Err(), nested)
	}
	var again Enc
	saveNested(&again, got)
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatal("nested map saves back differently")
	}

	d = NewDec(keys(), nil)
	if empty := LoadMap(d, cmp.Compare, getKey); d.Err() != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("empty LoadMap = %#v, %v; want a non-nil empty map", empty, d.Err())
	}
}

// TestLoadMapRefusesNonAscendingKeys: an equal or a descending key is not
// what SaveMap writes, so LoadMap fails the decoder on it and does not
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
		m := LoadMap(d, cmp.Compare, getKey)
		if d.Err() == nil {
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
	if loadNested(d); d.Err() == nil {
		t.Error("nested map with descending inner keys accepted")
	}
}

// TestLoadMapHostileCount: a count of 2^31 on a 10-byte input fails on
// truncation without sizing the map past the input.
func TestLoadMapHostileCount(t *testing.T) {
	var e Enc
	e.U32(1 << 31)
	e.Raw(make([]byte, 6))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDec(e.Bytes(), nil)
	m := LoadMap(d, cmp.Compare, getKey)
	runtime.ReadMemStats(&after)
	if d.Err() == nil {
		t.Fatal("a count past the input was accepted")
	}
	if len(m) != 1 {
		t.Fatalf("map holds %d entries, want the one the input carries", len(m))
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("LoadMap allocated %d bytes for a 10-byte input", n)
	}
}

// TestLoadMapDropsFailedEntry: an entry whose decode fails is not inserted,
// even though its key decoded.
func TestLoadMapDropsFailedEntry(t *testing.T) {
	var e Enc
	e.U32(2)
	e.I32(1)
	e.U64(10)
	e.I32(2)
	e.U32(0) // truncated value
	d := NewDec(e.Bytes(), nil)
	m := LoadMap(d, cmp.Compare, func(d *Dec) (int32, uint64) { return d.I32(), d.U64() })
	if d.Err() == nil {
		t.Fatal("truncated entry accepted")
	}
	if want := map[int32]uint64{1: 10}; !maps.Equal(m, want) {
		t.Fatalf("map %v, want %v", m, want)
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

// TestNestedRefusesMisreadBlob: Dec.Nested accepts a nested codec only if
// it consumes its blob exactly; one that under-reads or over-reads fails
// the decoder even when the bytes it read were there.
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
		e.Nested(fixedCodec{save: 4})
		e.U64(0) // bytes an over-read can reach
		d := NewDec(e.Bytes(), nil)
		d.Nested(fixedCodec{load: tc.load})
		if (d.Err() == nil) != tc.ok {
			t.Errorf("%s: err %v", tc.name, d.Err())
		}
		if tc.ok && d.Remaining() != 8 {
			t.Errorf("%s: %d bytes left after the blob, want 8", tc.name, d.Remaining())
		}
	}
}

// TestNestedDoesNotAllocate: the nested frame costs no allocation on a
// retained encoder and decoder.
func TestNestedDoesNotAllocate(t *testing.T) {
	var e Enc
	var d Dec
	var sc StateCodec = fixedCodec{save: 8, load: 8}
	round := func() {
		e.Reset()
		e.Nested(sc)
		d.Reset(e.Bytes(), nil)
		d.Nested(sc)
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 || d.Err() != nil {
		t.Fatalf("Nested allocates %.1f times per round (err %v)", avg, d.Err())
	}
}
