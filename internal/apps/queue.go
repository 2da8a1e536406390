package apps

import (
	"maps"
	"slices"

	"repro/internal/graph"
	"repro/internal/syncrun"
	"repro/internal/wire"
)

// sendQueue serializes an algorithm's sends to one message per neighbor
// per pulse (the CONGEST link capacity). Queued messages drain over
// subsequent pulses: sending at pulse p wakes the node at p+1 even without
// receptions (the event-driven model's send-trigger, §5.1), so draining
// needs no clock. Algorithms that may address several cluster trees over
// the same edge in one pulse route every send through a queue.
type sendQueue struct {
	q map[graph.NodeID][]wire.Body
}

// Send enqueues body for neighbor `to`.
func (s *sendQueue) Send(to graph.NodeID, body wire.Body) {
	if s.q == nil {
		s.q = make(map[graph.NodeID][]wire.Body)
	}
	s.q[to] = append(s.q[to], body)
}

// Flush transmits at most one queued message per neighbor. Call it exactly
// once at the end of every Init/Pulse.
func (s *sendQueue) Flush(n syncrun.API) {
	if len(s.q) == 0 {
		return
	}
	for _, to := range slices.Sorted(maps.Keys(s.q)) {
		buf := s.q[to]
		n.Send(to, buf[0])
		if len(buf) == 1 {
			delete(s.q, to)
		} else {
			s.q[to] = buf[1:]
		}
	}
}

// Empty reports whether nothing is queued.
func (s *sendQueue) Empty() bool { return len(s.q) == 0 }
