// Package shard runs one bounded-lag async engine per OS process over a
// contiguous node partition and merges their executions into a result
// byte-identical to the single-process serial engine.
//
// The protocol is hub-and-spoke over unix-domain sockets with one round
// trip per global window:
//
//	worker k                       coordinator
//	--------                       -----------
//	JOIN{k}           ──────▶
//	                  ◀──────      HELLO{spec, cuts, self, adversary, ...,
//	                                     checkpoint path when resuming}
//	ShardInit, or ShardRestoreFrames
//	from the checkpoint file
//	FLUSH{log, minT}  ──────▶      k-way merge all logs by (trigT, trigSeq),
//	                               grant seqs in merge order, route remote
//	                  ◀──────      OPEN{wStart, grants, inbound frames, snap?}
//	SNAPFRAME{engine} ──────▶      (only when snap: seal the K frames to disk)
//	ShardRunWindow
//	FLUSH{...}        ──────▶      ... until no shard has pending events ...
//	                  ◀──────      FINISH
//	RESULT{...}       ──────▶      merge per-shard results
//
// Correctness rests on the bounded-lag safety argument extended across
// processes: every event executed in window [wStart, wStart+MinDelay)
// schedules only events at t ≥ wStart+MinDelay (the adversary's declared
// MinDelay, enforced at dispatch, plus fl(t+d) monotonicity in exact
// floating point), so a window's staged schedule calls — sorted by their
// triggering event's (t, seq) — are exactly the calls the serial engine
// would issue, in its order. Merge keys are globally unique: trigSeq is a
// granted (hence unique) event seq during windows and the global node id
// during Init, and node ownership is disjoint. The coordinator's merge
// therefore assigns seqs exactly as the serial engine's schedule calls
// would, and seqs drive every tie-break downstream.
//
// Every payload but HELLO's JSON is a wire.Enc stream read back with a
// wire.Dec — the codec snapshots use, so a value has one byte form whether
// it crosses a socket or a checkpoint. Bodies travel as raw images plus the
// referenced arena segment's words (see wire.AppendBodySeg): serialization
// is memcpy. Segments are re-homed into the receiving engine's arena on the
// way in and released from the sender's on the way out, so each arena's
// Live() count settles to zero exactly as in a single-process run.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Message types. Every message is [type u8][payload len u32][payload],
// little-endian, same-machine only (the workers are re-execs of this very
// binary).
const (
	msgJoin byte = 1 + iota
	msgHello
	msgFlush
	msgOpen
	msgFinish
	msgResult
	// msgSnapFrame carries one worker's engine frame to the coordinator
	// when an OPEN's snapshot flag was set (worker → coordinator).
	msgSnapFrame
)

// maxMsgLen bounds a single protocol message; a 10M-node shard's flush
// stays far below this, so anything larger is a corrupt stream.
const maxMsgLen = 1 << 31

func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readMsg(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxMsgLen {
		return 0, nil, fmt.Errorf("shard: oversized %d-byte message", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// finish closes the decode of one received message: the decoder's sticky
// error (a short or malformed payload) or unread trailing bytes.
func finish(d *wire.Dec, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("shard: %s message: %w", what, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("shard: %d trailing bytes in %s message", n, what)
	}
	return nil
}

// Event frames: one cross-shard event in flight, a blob inside FLUSH and
// OPEN. Layout:
//
//	kind u8 | proto i32 | stage i64 | src i32 | dst i32 | Body+segment
//
// The timestamp and granted seq travel in the enclosing envelope (the
// flush entry / open inbound record); the local LinkID deliberately does
// not travel — link ids are shard-local, so the receiver recomputes its
// own (see async.ShardInject).
func encodeEventFrame(e *wire.Enc, kind uint8, src, to graph.NodeID, m async.Msg) {
	e.U8(kind)
	e.I32(int32(m.Proto))
	e.I64(int64(m.Stage))
	e.I32(int32(src))
	e.I32(int32(to))
	e.Body(m.Body)
}

// decodeEventFrame reads one event frame, re-homing any segment into d's
// arena; a malformed frame latches d's sticky error.
func decodeEventFrame(d *wire.Dec) (kind uint8, src, to graph.NodeID, m async.Msg) {
	kind = d.U8()
	m.Proto = async.Proto(d.I32())
	m.Stage = int(d.I64())
	src = graph.NodeID(d.I32())
	to = graph.NodeID(d.I32())
	m.Body = d.Body()
	return kind, src, to, m
}
