package core

import (
	"testing"

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
