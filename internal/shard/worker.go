package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Worker entry points. A worker process is a re-exec of the coordinator's
// own binary: the coordinator sets envSocket/envIndex and the child's
// main calls MaybeWorker before anything else. Test binaries hook the
// same pair in TestMain, and cmd/shardsim additionally accepts the
// -shard-worker flag form for debuggability (ps shows what the process
// is).

// envSocket names the coordinator's unix socket in a worker's
// environment; its presence is what makes a process a worker.
const envSocket = "REPRO_SHARD_SOCKET"

// envIndex is the worker's shard index.
const envIndex = "REPRO_SHARD_INDEX"

// MaybeWorker turns the current process into a shard worker when the
// environment says so, never returning in that case (the process exits
// when its shard completes). A no-op otherwise.
func MaybeWorker() {
	sock := os.Getenv(envSocket)
	if sock == "" {
		return
	}
	idx, err := strconv.Atoi(os.Getenv(envIndex))
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard worker: bad %s: %v\n", envIndex, err)
		os.Exit(1)
	}
	if err := runWorker(sock, idx); err != nil {
		fmt.Fprintf(os.Stderr, "shard worker %d: %v\n", idx, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker dials the coordinator and serves one shard to completion.
func runWorker(socket string, idx int) error {
	conn, err := net.Dial("unix", socket)
	if err != nil {
		return err
	}
	defer conn.Close()
	return serveWorker(conn, idx, nil, true)
}

// hello is the coordinator→worker configuration message (JSON: it is
// sent once, so schema clarity beats byte-shaving).
type hello struct {
	GraphSpec string
	Cuts      []graph.NodeID
	Self      int
	Adversary string
	Faults    string
	Workload  string
	Sources   []graph.NodeID
	SegWords  int
	KeepTrace bool
	// ResumeFrom, when set, is the absolute path of the checkpoint file the
	// worker restores its engine from instead of running ShardInit (workers
	// share the coordinator's machine, as the socket path already assumes).
	ResumeFrom string
}

// settledHeap is the worker-side twin of the bench probe: heap bytes
// retained after consecutive collections.
func settledHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// serveWorker runs the worker side of the window protocol. full, when
// non-nil, is a pre-built whole graph (in-process launch: the
// coordinator's graph is shared read-only instead of re-generated);
// ownProcess enables the settled-heap probes, which are only meaningful
// when this worker is alone on its heap.
func serveWorker(conn net.Conn, idx int, full *graph.Graph, ownProcess bool) error {
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)

	var join wire.Enc
	self := uint32(idx)
	join.Coder().U32(&self)
	if err := writeMsg(w, msgJoin, join.Bytes()); err != nil {
		return err
	}
	typ, payload, err := readMsg(r, nil)
	if err != nil {
		return err
	}
	if typ != msgHello {
		return fmt.Errorf("shard: worker expected HELLO, got message type %d", typ)
	}
	var cfg hello
	if err := json.Unmarshal(payload, &cfg); err != nil {
		return fmt.Errorf("shard: bad HELLO: %v", err)
	}
	if cfg.Self != idx {
		return fmt.Errorf("shard: HELLO for shard %d reached worker %d", cfg.Self, idx)
	}

	startNs := time.Now()
	if full == nil {
		full, err = graph.FromSpec(cfg.GraphSpec)
		if err != nil {
			return fmt.Errorf("shard: worker %d: %v", idx, err)
		}
	}
	part := graph.PartitionFromCuts(cfg.Cuts)
	if idx >= part.K() {
		return fmt.Errorf("shard: worker index %d outside %d-way partition", idx, part.K())
	}
	sub := full
	if part.K() > 1 {
		lo, hi := part.Range(idx)
		sub = full.Subrange(lo, hi)
		full = nil // the whole graph was transient scaffolding; let it go
	}
	adv, err := ParseAdversary(cfg.Adversary)
	if err != nil {
		return err
	}
	fs, err := async.ParseFaultSpec(cfg.Faults)
	if err != nil {
		return err
	}
	adv = async.WithFaults(adv, fs)
	mk, err := NewWorkload(cfg.Workload, WorkloadConfig{Sources: cfg.Sources, SegWords: cfg.SegWords})
	if err != nil {
		return err
	}
	graphHeap := int64(0)
	if ownProcess {
		graphHeap = settledHeap()
	}
	sim := async.New(sub, adv, mk)
	if cfg.KeepTrace {
		sim.KeepTrace()
	}
	sim.BeginShard()

	if cfg.ResumeFrom != "" {
		// Every worker reads the whole file and keeps its own share: resume
		// is a once-per-process cold path over a page-cache-hot file.
		_, frames, rerr := readSnapshotFile(cfg.ResumeFrom)
		if rerr != nil {
			return rerr
		}
		if rerr := sim.ShardRestoreFrames(frames); rerr != nil {
			return fmt.Errorf("shard: worker %d restore: %w", idx, rerr)
		}
	} else {
		sim.ShardInit()
	}

	// The window loop. enc carries every message this worker sends, dec
	// every one it receives and evDec each routed event frame; frames holds
	// one FLUSH's event frames until writeFlush copies them in. All of them,
	// and flush, open and inbound, are reused across windows.
	var (
		enc        = wire.NewEnc(sim.Arena())
		frames     = wire.NewEnc(sim.Arena())
		dec, evDec wire.Dec
		flush      flushMsg
		open       openMsg
		inbound    []async.ShardEvent
		inBuf      []byte
	)
	// The first flush's exec time covers startup + graph build + Init so
	// the coordinator can report startup separately from steady windows.
	execNs := uint64(time.Since(startNs))
	for {
		flush.minT, flush.hasMin = sim.ShardPendingMinT()
		flush.execNs = execNs
		flush.steps = sim.ShardSteps()
		stageFlush(sim, &flush, frames)
		if err := writeFlush(w, enc, &flush); err != nil {
			return err
		}

		typ, payload, err := readMsg(r, inBuf)
		if err != nil {
			return err
		}
		inBuf = payload[:0]
		if typ == msgFinish {
			break
		}
		if typ != msgOpen {
			return fmt.Errorf("shard: worker expected OPEN/FINISH, got message type %d", typ)
		}
		dec.Reset(payload, nil)
		open.code(dec.Coder())
		if err := finish(&dec, "OPEN"); err != nil {
			return err
		}
		if inbound, err = open.events(inbound, &evDec, sim.Arena()); err != nil {
			return err
		}
		if err := sim.ShardAdmit(open.runs, inbound); err != nil {
			return fmt.Errorf("shard: worker %d: %w", idx, err)
		}
		if open.snap {
			// Grants applied, inbound admitted: the staged log is empty and
			// every pending event sits in the queue — serialize and ship the
			// engine frame before running the window.
			enc.Reset()
			if serr := sim.ShardSnapshotFrame(enc); serr != nil {
				return serr
			}
			if werr := writeMsg(w, msgSnapFrame, enc.Bytes()); werr != nil {
				return werr
			}
		}
		t0 := time.Now()
		sim.ShardRunWindow(open.wStart)
		execNs = uint64(time.Since(t0))
	}

	// RESULT: counters, footprint, outputs, trace. FINISH means nothing is
	// pending anywhere, which is FinishResult's precondition.
	res := sim.FinishResult()
	engineHeap := int64(0)
	heapMB := int64(0)
	if ownProcess {
		settled := settledHeap()
		engineHeap = settled - graphHeap
		heapMB = (settled + (1 << 20) - 1) >> 20 // round up: a live process is never 0 MB
	}
	m := resultMsg{res: res, outputs: sim.ShardRawOutputs, info: ShardInfo{
		Steps: sim.ShardSteps(), SegLive: sim.Arena().Live(),
		Nodes: sub.NLocal(), Links: sub.Links(), Boundary: len(sub.BoundaryLinks()),
		GraphBytes: sub.Footprint(), EngineBytes: engineHeap, HeapMB: heapMB,
	}}
	enc.Reset()
	m.code(enc.Coder()) // only a load reports an error
	return writeMsg(w, msgResult, enc.Bytes())
}

// writeFlush sends one FLUSH, coded into enc.
func writeFlush(w *bufio.Writer, enc *wire.Enc, f *flushMsg) error {
	enc.Reset()
	f.code(enc.Coder()) // only a load reports an error
	return writeMsg(w, msgFlush, enc.Bytes())
}

// stageFlush fills f's staged log from the engine's: one group per
// triggering event, and for each call bound for another shard its event
// frame, written into frames. A frame's view stays valid as frames grows
// (growing copies to a new array and leaves the old one as it was) until
// the next stageFlush resets frames. Writing a frame ends the local
// segment's lifecycle: the frame now owns the payload, exactly where the
// serial engine's ack-side Release would have been reached remotely.
func stageFlush(sim *async.Sim, f *flushMsg, frames *wire.Enc) {
	f.groups, f.remotes = f.groups[:0], f.remotes[:0]
	frames.Reset()
	f.localMin = sim.ShardLog(
		func(trigT float64, trigSeq uint64, count int) {
			f.groups = append(f.groups, logGroup{trigT: trigT, trigSeq: trigSeq, count: uint32(count)})
		},
		func(idx int, ev *async.ShardEvent) {
			lo := frames.Len()
			codeEvent(frames.Coder(), ev)
			sim.Arena().Release(ev.Msg.Body.Seg)
			f.groups[len(f.groups)-1].remotes++
			f.remotes = append(f.remotes, logRemote{idx: uint32(idx), evT: ev.T, owner: ev.Owner(), frame: frames.Bytes()[lo:]})
		})
}
