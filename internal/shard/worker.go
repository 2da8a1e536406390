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
// own binary: the coordinator sets EnvSocket/EnvIndex and the child's
// main calls MaybeWorker before anything else. Test binaries hook the
// same pair in TestMain, and cmd/shardsim additionally accepts the
// -shard-worker flag form for debuggability (ps shows what the process
// is).

// EnvSocket names the coordinator's unix socket in a worker's
// environment; its presence is what makes a process a worker.
const EnvSocket = "REPRO_SHARD_SOCKET"

// EnvIndex is the worker's shard index.
const EnvIndex = "REPRO_SHARD_INDEX"

// MaybeWorker turns the current process into a shard worker when the
// environment says so, never returning in that case (the process exits
// when its shard completes). A no-op otherwise.
func MaybeWorker() {
	sock := os.Getenv(EnvSocket)
	if sock == "" {
		return
	}
	idx, err := strconv.Atoi(os.Getenv(EnvIndex))
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard worker: bad %s: %v\n", EnvIndex, err)
		os.Exit(1)
	}
	if err := RunWorker(sock, idx); err != nil {
		fmt.Fprintf(os.Stderr, "shard worker %d: %v\n", idx, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker dials the coordinator and serves one shard to completion.
func RunWorker(socket string, idx int) error {
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
	join.U32(uint32(idx))
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

	// The window loop. remote stays aligned with the staged log between
	// flush and grant; enc carries every message this worker sends and dec
	// every one it receives, both reused across windows.
	var (
		enc    = wire.NewEnc(sim.Arena())
		dec    wire.Dec
		seqs   []uint64
		remote []bool
		inBuf  []byte
	)
	// The first flush's exec time covers startup + graph build + Init so
	// the coordinator can report startup separately from steady windows.
	execNs := uint64(time.Since(startNs))
	for {
		// FLUSH: wheel minimum, exec time, then the staged log.
		enc.Reset()
		minT, hasMin := sim.ShardPendingMinT()
		enc.Bool(hasMin)
		enc.F64(minT)
		enc.U64(execNs)
		enc.U64(sim.ShardSteps())
		n := sim.ShardStagedCount()
		enc.U32(uint32(n))
		remote = remote[:0]
		for i := 0; i < n; i++ {
			v := sim.ShardStaged(i)
			isRemote := part.Owner(v.Owner) != idx
			remote = append(remote, isRemote)
			enc.F64(v.TrigT)
			enc.U64(v.TrigSeq)
			enc.F64(v.T)
			enc.I32(int32(v.Owner))
			enc.Bool(isRemote)
			if isRemote {
				mark := enc.BeginBlob()
				encodeEventFrame(enc, v.Kind, v.Src, v.Dst, v.Msg)
				enc.EndBlob(mark)
				// The frame now owns the payload; the local segment's
				// lifecycle ends here, exactly where the serial engine's
				// ack-side Release would have been reached remotely.
				sim.Arena().Release(v.Msg.Body.Seg)
			}
		}
		if err := writeMsg(w, msgFlush, enc.Bytes()); err != nil {
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
		dec.Reset(payload, sim.Arena())
		wStart := dec.F64()
		seqs = seqs[:0]
		for i, ng := 0, int(dec.U32()); i < ng && !dec.Failed(); i++ {
			seqs = append(seqs, dec.U64())
		}
		if dec.Failed() {
			return finish(&dec, "OPEN")
		}
		sim.ShardGrant(seqs, remote)
		for i, ni := 0, int(dec.U32()); i < ni; i++ {
			seq := dec.U64()
			t := dec.F64()
			end := dec.BeginBlob()
			kind, src, dst, m := decodeEventFrame(&dec)
			dec.EndBlob(end)
			if dec.Failed() {
				return finish(&dec, "OPEN")
			}
			sim.ShardInject(seq, t, kind, src, dst, m)
		}
		snap := dec.Bool()
		if err := finish(&dec, "OPEN"); err != nil {
			return err
		}
		if snap {
			// Grants applied, inbound injected: the staged log is empty and
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
		sim.ShardRunWindow(wStart)
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
	enc.Reset()
	enc.F64(res.Time)
	enc.F64(res.QuiesceTime)
	enc.U64(res.Msgs)
	enc.U64(res.Acks)
	enc.U64(res.Dropped)
	enc.U64(res.Retrans)
	enc.U64(res.Undeliverable)
	enc.U64(sim.ShardSteps())
	enc.U64(uint64(sim.Arena().Live()))
	enc.U32(uint32(sub.NLocal()))
	enc.U32(uint32(sub.Links()))
	enc.U32(uint32(len(sub.BoundaryLinks())))
	enc.U64(uint64(sub.Footprint()))
	enc.U64(uint64(engineHeap))
	enc.U64(uint64(heapMB))
	enc.U32(uint32(len(res.PerProto)))
	for _, p := range sortedProtos(res.PerProto) {
		enc.I32(int32(p))
		enc.U64(res.PerProto[p])
	}
	// Outputs ride in a blob: their count is known only after the visit.
	mark := enc.BeginBlob()
	err = sim.ShardRawOutputs(func(id graph.NodeID, b wire.Body) error {
		enc.I32(int32(id))
		enc.RawBody(b)
		return nil
	})
	if err != nil {
		return err
	}
	enc.EndBlob(mark)
	enc.U32(uint32(len(res.Trace)))
	for i := range res.Trace {
		te := &res.Trace[i]
		enc.F64(te.T)
		enc.U64(te.Seq)
		enc.I32(int32(te.From))
		enc.I32(int32(te.To))
		enc.I32(int32(te.Msg.Proto))
		enc.I64(int64(te.Msg.Stage))
		enc.RawBody(te.Msg.Body)
		enc.U8(uint8(te.Kind))
	}
	return writeMsg(w, msgResult, enc.Bytes())
}

func sortedProtos(pp map[async.Proto]uint64) []async.Proto {
	out := make([]async.Proto, 0, len(pp))
	for p := range pp {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
