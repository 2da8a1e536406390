package slab

import (
	"runtime"
	"testing"
)

// TestObjectsChunkDiesWithItsValues: an Objects keeps its current chunk
// alive only through the values carved from it. While a value is
// reachable the next Alloc continues the chunk; once none is, a collection
// frees the chunk and the next Alloc restarts the ramp at one value.
func TestObjectsChunkDiesWithItsValues(t *testing.T) {
	type handler struct{ a, b, c, d int64 } // past the tiny allocator's 16 bytes
	var o Objects[handler]
	kept := make([]*handler, 0, 100)
	for i := range 100 {
		kept = append(kept, o.Alloc(handler{a: int64(i)}))
	}
	for i, h := range kept {
		if h.a != int64(i) {
			t.Fatalf("value %d holds %d", i, h.a)
		}
	}
	runtime.GC()
	if o.head.Value() == nil || o.size != 64 {
		t.Fatalf("the chunk of live values was dropped (size %d)", o.size)
	}
	runtime.KeepAlive(kept)
	kept = nil
	runtime.GC()
	if o.head.Value() != nil {
		t.Fatal("a chunk with no live value outlived a collection")
	}
	if o.Alloc(handler{}); o.size != 1 {
		t.Fatalf("the ramp restarted at %d values, want 1", o.size)
	}
}
