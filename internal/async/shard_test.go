package async

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// spray sends one message to every neighbor at Init and ignores what it
// receives: each node's Init is one trigger with one call per neighbor.
type spray struct{ NopAck }

func (spray) Init(n *Node) {
	for _, nb := range n.Neighbors() {
		n.Send(nb.Node, Msg{Proto: 1, Body: wire.Tag(1)})
	}
}

func (spray) Recv(*Node, graph.NodeID, Msg) {}

// sprayShard is the shard hosting [0, 4) of cycle:8 under Fixed{1}, after
// Init: eight staged calls in four groups, of which 0→7 and 3→4 are remote.
func sprayShard(t *testing.T) *Sim {
	t.Helper()
	g, err := graph.FromSpec("cycle:8")
	if err != nil {
		t.Fatal(err)
	}
	s := New(g.Subrange(0, 4), Fixed{D: 1}, func(graph.NodeID) Handler { return spray{} })
	s.BeginShard()
	s.ShardInit()
	return s
}

// TestShardAdmitOrder pins seq-ordered admission: an OPEN whose inbound
// seqs interleave the local grants pushes every key in (t, seq) order,
// and the queue pops in (t, seq) order. Under Fixed{1} every call of the
// window lands in one slot, so pushing the local grants first and the
// inbound events after would put that slot out of order: a heap, or on
// the wheel a bag left to sort.
func TestShardAdmitOrder(t *testing.T) {
	s := sprayShard(t)
	var (
		groups, calls, start int
		remote               []int // staged positions of the remote calls
	)
	localMin := s.ShardLog(
		func(_ float64, _ uint64, count int) { groups, start, calls = groups+1, calls, calls+count },
		func(idx int, ev *ShardEvent) {
			if ev.Owner() != 7 && ev.Owner() != 4 {
				t.Errorf("remote call owned by %d, want 7 or 4", ev.Owner())
			}
			remote = append(remote, start+idx)
		})
	if groups != 4 || calls != 8 || len(remote) != 2 || localMin != 1 {
		t.Fatalf("staged log: %d groups, %d calls, remote at %v, local minimum %g; want 4, 8, two, 1",
			groups, calls, remote, localMin)
	}

	// Seqs 10..12, 14, 16..19 for the eight staged calls; inbound at 5, 13,
	// 15 and 20 — before, between and after the local grants.
	runs := []ShardRun{{Start: 10, Len: 3}, {Start: 14, Len: 1}, {Start: 16, Len: 4}}
	inbound := []ShardEvent{
		{Seq: 5, T: 1, Kind: evDeliver, Src: 7, Dst: 0},
		{Seq: 13, T: 1, Kind: evDeliver, Src: 4, Dst: 3},
		{Seq: 15, T: 1, Kind: evAckArrive, Src: 1, Dst: 2},
		{Seq: 20, T: 1, Kind: evAckArrive, Src: 0, Dst: 7},
	}
	granted := []uint64{10, 11, 12, 14, 16, 17, 18, 19}
	var want []uint64
	for _, in := range inbound {
		want = append(want, in.Seq)
	}
	for i, seq := range granted {
		if i != remote[0] && i != remote[1] {
			want = append(want, seq)
		}
	}
	slices.Sort(want)

	// The control: the same keys pushed local-first heap the slot they
	// share (at t = 1, one unit past a fresh clock, the overflow store).
	var q eventQueue
	for i, seq := range granted {
		if i != remote[0] && i != remote[1] {
			q.push(&event{t: 1, seq: seq})
		}
	}
	for _, in := range inbound {
		q.push(&event{t: in.T, seq: in.Seq})
	}
	if !anyOutOfOrder(&q) {
		t.Fatal("control: local-first pushes left every slot in order; the test no longer interleaves")
	}

	if err := s.ShardAdmit(runs, inbound); err != nil {
		t.Fatal(err)
	}
	if anyOutOfOrder(&s.events) {
		t.Error("seq-ordered admission pushed out of order")
	}
	var got []uint64
	prev := evKey{t: math.Inf(-1)}
	for !s.events.empty() {
		k, _ := s.events.pop()
		if !prev.less(k) {
			t.Fatalf("pop (%g, %d) after (%g, %d)", k.t, k.seq, prev.t, prev.seq)
		}
		prev = k
		got = append(got, k.seq)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("popped seqs %v, want %v", got, want)
	}
	if n := len(s.wctx[0].staged); n != 0 {
		t.Errorf("staged log holds %d calls after admission", n)
	}
}

// anyOutOfOrder reports whether some slot took a push out of (t, seq) order:
// a heaped straggler slot or overflow store, or a flagged bag.
func anyOutOfOrder(q *eventQueue) bool {
	if q.late.heaped {
		return true
	}
	for i := range q.slots {
		if q.slots[i].heaped || q.slots[i].unsorted {
			return true
		}
	}
	return false
}

// TestShardAdmitErrors: what a corrupt OPEN can carry is an error, not a
// panic.
func TestShardAdmitErrors(t *testing.T) {
	all := []ShardRun{{Start: 0, Len: 8}}
	for _, tc := range []struct {
		name    string
		runs    []ShardRun
		inbound []ShardEvent
		reason  string
	}{
		{"short grant", []ShardRun{{Start: 0, Len: 7}}, nil, "7 seqs granted for 8"},
		{"long grant", []ShardRun{{Start: 0, Len: 8}, {Start: 9, Len: 1}}, nil, "9 seqs granted for 8"},
		{"non-edge", all, []ShardEvent{{Seq: 9, T: 1, Kind: evDeliver, Src: 5, Dst: 0}}, "non-edge"},
		{"foreign owner", all, []ShardEvent{{Seq: 9, T: 1, Kind: evDeliver, Src: 3, Dst: 4}}, "not owned"},
		{"unknown kind", all, []ShardEvent{{Seq: 9, T: 1, Kind: evRetrans, Src: 0, Dst: 1}}, "unknown kind"},
		{"proto too wide", all, []ShardEvent{{Seq: 9, T: 1, Kind: evDeliver, Src: 7, Dst: 0, Msg: Msg{Proto: 1 << 16}}}, "proto 65536 outside [0, 65535]"},
		{"negative proto", all, []ShardEvent{{Seq: 9, T: 1, Kind: evAckArrive, Src: 0, Dst: 7, Msg: Msg{Proto: -1}}}, "proto -1 outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := sprayShard(t).ShardAdmit(tc.runs, tc.inbound)
			var se *ShardError
			if !errors.As(err, &se) || !strings.Contains(se.Reason, tc.reason) {
				t.Fatalf("ShardAdmit: %v, want a *ShardError about %q", err, tc.reason)
			}
		})
	}
}
