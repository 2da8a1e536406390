package wire

import (
	"fmt"
	"slices"

	"repro/internal/slab"
)

// Coder runs one state method both ways: taken from an Enc (Enc.Coder) it
// saves, writing *p for every field it is handed; taken from a Dec
// (Dec.Coder) it loads, setting *p. A StateCodec type so writes each field
// once, in a state(c *Coder) method its SaveState and LoadState both call,
// and its save and its load cannot disagree; engine frames and protocol
// messages code each record the same way. The framing rules live here,
// once:
//
//   - a flag byte is 0 or 1 (Bool);
//   - a count is capped by the bytes left, since every element and entry
//     takes at least one, so a hostile count neither sizes nor drives
//     anything (List, Map);
//   - map keys strictly ascend (Map);
//   - a nested codec, or a section, consumes its blob exactly (Nested,
//     Blob), and a section's load reads no byte past it;
//   - nothing is appended or inserted once the decoder has failed.
//
// Checks the framing cannot see (an id out of range, a pulse past the
// bound) go through Fail, guarded by Loading. A Coder is a field of its Enc
// or Dec, so taking one allocates nothing.
type Coder struct {
	e *Enc
	d *Dec
}

// Coder returns e's coder, in save mode.
func (e *Enc) Coder() *Coder {
	e.c = Coder{e: e}
	return &e.c
}

// Coder returns d's coder, in load mode.
func (d *Dec) Coder() *Coder {
	d.c = Coder{d: d}
	return &d.c
}

// Loading reports whether c loads (sets fields) rather than saves.
func (c *Coder) Loading() bool { return c.d != nil }

// Failed reports whether a load has failed; a save never fails.
func (c *Coder) Failed() bool { return c.d != nil && c.d.failed }

// Fail fails a load (Dec.Fail). A save that cannot run is a caller bug —
// the engine gates on async.StateCodecProbe — so saving, Fail panics.
func (c *Coder) Fail(format string, args ...any) {
	if c.d == nil {
		panic(fmt.Sprintf(format, args...))
	}
	c.d.Fail(format, args...)
}

// code codes *p through save or load, the Enc and Dec methods of one
// primitive.
func code[T any](c *Coder, p *T, save func(*Enc, T), load func(*Dec) T) {
	if c.d != nil {
		*p = load(c.d)
	} else {
		save(c.e, *p)
	}
}

// U8 codes one byte.
func (c *Coder) U8(p *uint8) { code(c, p, (*Enc).U8, (*Dec).U8) }

// Bool codes a flag as one byte; loading fails on any byte but 0 and 1.
func (c *Coder) Bool(p *bool) { code(c, p, (*Enc).Bool, (*Dec).Bool) }

// U32 codes a little-endian uint32.
func (c *Coder) U32(p *uint32) { code(c, p, (*Enc).U32, (*Dec).U32) }

// U64 codes a little-endian uint64.
func (c *Coder) U64(p *uint64) { code(c, p, (*Enc).U64, (*Dec).U64) }

// Str codes a length-prefixed string.
func (c *Coder) Str(p *string) { code(c, p, (*Enc).Str, (*Dec).Str) }

// I32 codes a little-endian int32.
func (c *Coder) I32(p *int32) { code(c, p, (*Enc).I32, (*Dec).I32) }

// I64 codes a little-endian int64.
func (c *Coder) I64(p *int64) { code(c, p, (*Enc).I64, (*Dec).I64) }

// Int codes an int as 64 bits.
func (c *Coder) Int(p *int) { code(c, p, (*Enc).Int, (*Dec).Int) }

// F64 codes a float64 as its IEEE-754 bit pattern.
func (c *Coder) F64(p *float64) { code(c, p, (*Enc).F64, (*Dec).F64) }

// Body codes a message body (Enc.Body, Dec.Body).
func (c *Coder) Body(p *Body) { code(c, p, (*Enc).Body, (*Dec).Body) }

// RawBody codes a Body's raw image, segment handle verbatim (Enc.RawBody,
// Dec.RawBody): the form of record-only bodies, never resolved again.
func (c *Coder) RawBody(p *Body) { code(c, p, (*Enc).RawBody, (*Dec).RawBody) }

// SkipBody steps over a Body a load does not keep (a record another engine
// owns) without carving its segment. Loading only.
func (c *Coder) SkipBody() { c.d.SkipBody() }

// Bytes codes *p as a length-prefixed byte string: a frame routed without
// being read. Loading, *p views the input (Dec.SkipBlob); copy it to keep
// it past the input.
func (c *Coder) Bytes(p *[]byte) {
	if c.d != nil {
		*p = c.d.SkipBlob()
	} else {
		c.e.U32(uint32(len(*p)))
		c.e.Raw(*p)
	}
}

// Blob codes f's fields inside a length-prefixed blob, for a section whose
// length is known only once it is written (a filtered walk, a visit).
// Loading, f reads the blob's bytes and no further — More reports whether
// any are left — and fails unless it consumes them exactly.
func (c *Coder) Blob(f func(c *Coder)) {
	if c.d == nil {
		mark := c.e.BeginBlob()
		f(c)
		c.e.EndBlob(mark)
		return
	}
	d := c.d
	end := d.BeginBlob()
	if d.failed {
		return
	}
	all := d.b
	d.b = d.b[:end]
	f(c)
	d.b = all
	d.EndBlob(end)
}

// More reports whether a load has unread bytes left: of the input, or
// inside a Blob of the blob. Saving, it is false.
func (c *Coder) More() bool { return c.d != nil && c.d.Remaining() > 0 }

// ID codes an int32-kinded id (graph.NodeID, cover.ClusterID) as I32.
func ID[T ~int32](c *Coder, p *T) {
	v := int32(*p)
	c.I32(&v)
	*p = T(v)
}

// Nested codes sc's state (SaveState, LoadState) as a Blob: loading fails
// unless sc consumes the blob exactly.
func (c *Coder) Nested(sc StateCodec) {
	c.Blob(func(c *Coder) {
		if c.d != nil {
			sc.LoadState(c.d)
		} else {
			sc.SaveState(c.e)
		}
	})
}

// Raw codes *p verbatim, without a count: loading reads n bytes, a length
// the loader derives from state it already holds (reg's and gather's rows),
// into *p grown through sl.
func (c *Coder) Raw(p *[]byte, n int, sl *slab.Slab[byte]) {
	if c.d == nil {
		c.e.Raw(*p)
		return
	}
	if b := c.d.Raw(n); !c.d.failed {
		*p = append(sl.Grow((*p)[:0], n), b...)
	}
}

// Count codes a length: saving writes n, loading returns the count read,
// failing on one past the bytes left (every element takes at least one).
func (c *Coder) Count(n int) int {
	if c.d == nil {
		c.e.U32(uint32(n))
		return n
	}
	n = int(c.d.U32())
	if left := c.d.Remaining(); n > left {
		c.d.Fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return n
}

// List codes *s as a count and then each element through f. Loading, it
// replaces *s in place: it truncates *s, and for each element appends a
// zero value, from sl when sl is non-nil, and loads it where it lies, so
// no element is copied through a local. An element that fails is dropped.
func List[T any](c *Coder, s *[]T, sl *slab.Slab[T], f func(*Coder, *T)) {
	n := c.Count(len(*s))
	if c.d == nil {
		for i := range *s {
			f(c, &(*s)[i])
		}
		return
	}
	*s = (*s)[:0]
	for i := 0; i < n && !c.d.failed; i++ {
		var zero T
		if sl != nil {
			*s = slab.Push(sl, *s, zero)
		} else {
			*s = append(*s, zero)
		}
		if f(c, &(*s)[i]); c.d.failed {
			*s = (*s)[:i]
		}
	}
}

// Alloc returns *p, allocating it first when nil: how a Map callback fills
// in the pointer value a load hands it.
func Alloc[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

type entry[K, V any] struct {
	k K
	v V
}

// Map codes *m as a count and then its entries, each through f, in
// ascending cmp order of their keys, so the bytes are a pure function of
// the map's contents. Loading replaces *m with a new map, so no map a
// handler shares is touched; it fails on a key that does not strictly
// ascend, and inserts nothing once the decoder has failed. f is handed zero values to load into; a
// pointer value it allocates itself (Alloc).
func Map[K comparable, V any](c *Coder, m *map[K]V, cmp func(a, b K) int, f func(c *Coder, k *K, v *V)) {
	if c.d == nil {
		es := make([]entry[K, V], 0, len(*m))
		for k, v := range *m {
			es = append(es, entry[K, V]{k, v})
		}
		slices.SortFunc(es, func(a, b entry[K, V]) int { return cmp(a.k, b.k) })
		c.Count(len(es))
		for i := range es {
			f(c, &es[i].k, &es[i].v)
		}
		return
	}
	n := c.Count(0)
	if *m = make(map[K]V, n); n == 0 {
		return
	}
	e := new(entry[K, V]) // f's targets escape through the call: one per map
	var prev K
	for i := 0; i < n && !c.d.failed; i++ {
		*e = entry[K, V]{}
		f(c, &e.k, &e.v)
		if i > 0 && cmp(prev, e.k) >= 0 {
			c.d.Fail("map key %v after %v", e.k, prev)
		}
		if c.d.failed {
			return
		}
		(*m)[e.k], prev = e.v, e.k
	}
}
