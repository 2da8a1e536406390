package core

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/wire"
)

// TestSynchronizerCodecRoundTrips covers every synchronizer payload kind:
// replies, status reports, Go-Aheads, and the zero-copy algo framing.
func TestSynchronizerCodecRoundTrips(t *testing.T) {
	for _, m := range []replyMsg{{Pulse: 0, Chosen: true}, {Pulse: 63, Chosen: false}} {
		if got := decReply(encReply(m)); got != m {
			t.Fatalf("reply round trip: %+v vs %+v", got, m)
		}
	}
	for _, m := range []statusMsg{{Q: 4, ChildPulse: 3, Ready: true}, {Q: 64, ChildPulse: 64, Ready: false}} {
		if got := decStatus(encStatus(m)); got != m {
			t.Fatalf("status round trip: %+v vs %+v", got, m)
		}
	}
	for _, m := range []gaMsg{{Q: 8, ChildPulse: 5}, {Q: 1, ChildPulse: 0}} {
		if got := decGA(encGA(m)); got != m {
			t.Fatalf("ga round trip: %+v vs %+v", got, m)
		}
	}
	inner := wire.Body{Kind: 77, A: 1, B: -2, C: 3, D: 4}
	framed := frameAlgo(9, inner)
	if framed.Kind != kindAlgo || framed.Sub != 77 {
		t.Fatalf("frame fields: %+v", framed)
	}
	pulse, got := framed.Unframe()
	if pulse != 9 || got != inner {
		t.Fatalf("algo framing round trip: pulse %d, %+v", pulse, got)
	}
}

// TestFrameAlgoRejectsSegments pins the retention contract: the
// synchronizer defers algorithm payloads past the carrying message's
// lifecycle, so seg-carrying payloads must be refused at the send side.
func TestFrameAlgoRejectsSegments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for seg-carrying algorithm payload")
		}
	}()
	var a wire.Arena
	seg, _ := a.Alloc(4)
	frameAlgo(1, wire.Body{Kind: 1, Seg: seg})
}

// TestGammaStateRefusesNonCanonicalKeys: γ's per-(cluster, pulse) state is
// written in ascending key order, so LoadState must refuse entries that
// descend in either key component or repeat a key, rather than accept a
// frame it would save back differently.
func TestGammaStateRefusesNonCanonicalKeys(t *testing.T) {
	g, err := graph.FromSpec("path:4")
	if err != nil {
		t.Fatal(err)
	}
	part := newGammaPartition(g)
	mk := func() *gammaNode { return newGamma(&apps.BFS{Sources: []graph.NodeID{0}}, 2, part) }
	save := func(gm *gammaNode) []byte {
		var e wire.Enc
		gm.SaveState(&e)
		return e.Bytes()
	}
	gm := mk()
	base := save(gm) // ends with the empty map's count
	for i, k := range []gKey{{0, 5}, {1, 2}, {1, 3}} {
		*gm.phase(k.cluster, k.pulse) = gammaPhase{p1Count: i + 1, cSafe: true, extSafe: 2}
	}
	full := save(gm)
	head, sz := base[:len(base)-4], (len(full)-len(base))/3
	entry := func(i int) []byte { return full[len(base)+i*sz : len(base)+(i+1)*sz] }
	frame := func(order ...int) []byte {
		b := append(append([]byte(nil), head...), byte(len(order)), 0, 0, 0)
		for _, i := range order {
			b = append(b, entry(i)...)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		order []int
		ok    bool
	}{
		{"ascending", []int{0, 1, 2}, true},
		{"cluster descends", []int{1, 0, 2}, false},
		{"pulse descends", []int{0, 2, 1}, false},
		{"repeated key", []int{0, 2, 2}, false},
	} {
		b := frame(tc.order...)
		d := wire.NewDec(b, nil)
		gm := mk()
		gm.LoadState(d)
		if (d.Err() == nil) != tc.ok {
			t.Errorf("%s: err %v", tc.name, d.Err())
		}
		if tc.ok && (d.Remaining() != 0 || !bytes.Equal(save(gm), b)) {
			t.Errorf("%s: saves back differently", tc.name)
		}
	}
}
