package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/execpolicy"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Launch selects how workers come to life.
type Launch int

const (
	// LaunchInProc serves every worker on a goroutine in this process,
	// over real unix sockets — the full protocol with none of the process
	// management, which is what determinism tests race-detect.
	LaunchInProc Launch = iota
	// LaunchProcess re-execs this binary once per shard (MaybeWorker in
	// the child's main turns it into a worker).
	LaunchProcess
)

// Config parameterizes one sharded run.
type Config struct {
	// GraphSpec is the graph.FromSpec string every process builds
	// independently — topologies ship as generator programs, not bytes.
	GraphSpec string
	// Graph optionally pre-builds the topology (LaunchInProc only, for
	// tests over graphs with no spec string). GraphSpec wins when both
	// are set; LaunchProcess requires GraphSpec.
	Graph *graph.Graph
	// Shards is K; 0 picks execpolicy.AutoShards.
	Shards int
	// Workload names a registered workload (see NewWorkload).
	Workload string
	// Adversary is the delay-adversary spec (see ParseAdversary).
	Adversary string
	// Faults is the fault-schedule spec (see async.ParseFaultSpec); ""
	// or "none" runs fault-free. Every worker wraps its adversary in the
	// same schedule, and fault decisions are pure functions of
	// (seed, link, txSeq, epoch), so the sharded run stays byte-identical
	// to the serial faulty run.
	Faults string
	// Sources are the workload's initiating nodes (default {0}).
	Sources []graph.NodeID
	// SegWords sizes segment payloads for segment-carrying workloads.
	SegWords int
	// KeepTrace records delivery traces (merged across shards).
	KeepTrace bool
	// Launch picks goroutine or process workers.
	Launch Launch
	// CeilingMB fails the run if any worker's settled heap exceeds it
	// (LaunchProcess only; in-process workers share one heap). 0 = off.
	CeilingMB int64
	// WorkerArgs, when set, provides extra argv for spawned workers (the
	// environment variables are always set; cmd/shardsim passes
	// ["-shard-worker"] so process listings identify workers).
	WorkerArgs []string
	// SnapshotEvery, when > 0, checkpoints the run at the first FLUSH
	// barrier after every N executed events (cumulative across shards),
	// writing the sealed distributed snapshot to SnapshotPath.
	SnapshotEvery uint64
	// SnapshotPath is the checkpoint file (atomically replaced at each
	// checkpoint). Required when SnapshotEvery > 0.
	SnapshotPath string
	// ResumeFrom resumes a checkpointed run from its snapshot file. The
	// workload identity (graph, adversary, faults, workload, sources,
	// trace flag) is taken from the file; Shards may differ from the
	// checkpoint's K — each worker keeps the records its nodes own.
	ResumeFrom string
}

// ShardInfo is one worker's self-report.
type ShardInfo struct {
	Nodes, Links, Boundary int
	Steps                  uint64
	SegLive                int
	// GraphBytes is the exact retained size of the shard's sub-CSR view
	// (closed form). EngineBytes/HeapMB are settled-heap probes, only
	// meaningful for process workers (0 in-process).
	GraphBytes  int64
	EngineBytes int64
	HeapMB      int64
}

// Stats is the coordinator's accounting of where wall-clock went.
type Stats struct {
	Shards      int
	Windows     uint64
	Frames      uint64
	FrameBytes  uint64
	CrossLinks  int
	TotalEvents uint64
	// StartupNs spans launch to the last init flush: process spawn, graph
	// generation, partition carving, handler Init.
	StartupNs int64
	// WorkerNs sums each window's slowest worker's execution time —
	// the critical path spent simulating.
	WorkerNs int64
	// CommNs sums each window's barrier overhead: time from OPEN writes
	// to the last FLUSH arrival, minus that window's WorkerNs share.
	CommNs int64
	// MergeNs sums coordinator-side merge + routing + OPEN serialization.
	MergeNs int64
	// Snapshots counts checkpoints written; SnapshotNs sums the time from
	// the flagged OPEN writes to the sealed file landing on disk.
	Snapshots  uint64
	SnapshotNs int64
}

// Report is a completed sharded run.
type Report struct {
	Result async.Result
	Stats  Stats
	Shards []ShardInfo
	Cuts   []graph.NodeID
}

// Run executes cfg to completion and merges the shards' executions. The
// merged Result is byte-identical to running the same workload through
// the serial single-process engine.
func Run(cfg Config) (*Report, error) {
	if cfg.SnapshotEvery > 0 && cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("shard: SnapshotEvery without a SnapshotPath")
	}
	var resumeSeq uint64
	if cfg.ResumeFrom != "" {
		var err error
		if cfg, resumeSeq, err = loadResume(cfg); err != nil {
			return nil, err
		}
	}
	full := cfg.Graph
	if cfg.GraphSpec != "" {
		g, err := graph.FromSpec(cfg.GraphSpec)
		if err != nil {
			return nil, err
		}
		full = g
	}
	if full == nil {
		return nil, fmt.Errorf("shard: config names no graph")
	}
	for _, s := range cfg.Sources {
		if s < 0 || int(s) >= full.N() {
			return nil, fmt.Errorf("shard: source %d outside the graph's nodes [0, %d)", s, full.N())
		}
	}
	if cfg.Launch == LaunchProcess && cfg.GraphSpec == "" {
		return nil, fmt.Errorf("shard: process workers need a GraphSpec to rebuild the topology")
	}
	k := cfg.Shards
	if k == 0 {
		k = execpolicy.AutoShards(runtime.GOMAXPROCS(0), full.Links())
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards", k)
	}
	if k > full.N() {
		k = full.N()
	}
	if _, err := ParseAdversary(cfg.Adversary); err != nil {
		return nil, err
	}
	if _, err := async.ParseFaultSpec(cfg.Faults); err != nil {
		return nil, err
	}
	if _, err := NewWorkload(cfg.Workload, WorkloadConfig{Sources: cfg.Sources, SegWords: cfg.SegWords}); err != nil {
		return nil, err
	}
	part := graph.PartitionContiguous(full, k)
	k = part.K()

	c := &coord{
		cfg:       cfg,
		part:      part,
		resumeSeq: resumeSeq,
		stats: Stats{
			Shards:     k,
			CrossLinks: part.CrossLinks(full),
		},
	}
	return c.run(full)
}

// coord is the coordinator's per-run state.
type coord struct {
	cfg   Config
	part  graph.Partition
	stats Stats

	conns []workerConn

	// resumeSeq is the grant counter a resumed checkpoint froze (0 on a
	// fresh run); cfg.ResumeFrom names the file the workers restore from.
	resumeSeq uint64

	mergeCur []int // MergeRuns cursor scratch
}

// workerConn is one connected worker.
type workerConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte // receive buffer, reused across windows
	dec  wire.Dec

	// The current FLUSH, decoded; its frames view buf.
	flush flushMsg

	// OPEN under construction: grant runs and routed events accumulate
	// during the merge, then writeOpen codes the message into enc.
	// remoteCur walks flush.remotes as the merge emits this worker's
	// groups.
	open      openMsg
	remoteCur int
	enc       wire.Enc

	// err is an in-process worker's failure, stored by its goroutine before
	// it closes the socket and loaded here once the coordinator's read fails.
	err atomic.Pointer[error]
}

func (c *coord) run(full *graph.Graph) (rep *Report, err error) {
	dir, err := os.MkdirTemp("", "shardsim")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sockPath := filepath.Join(dir, "coord.sock")
	ln, err := net.Listen("unix", sockPath)
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	k := c.part.K()
	c.conns = make([]workerConn, k)
	c.mergeCur = make([]int, k)
	t0 := time.Now()

	// Launch. In-process workers share the already-built graph read-only;
	// process workers regenerate from the spec. Any launch or serve error
	// surfaces through the protocol reads below (a dead worker's socket
	// read fails), and the deferred cleanup reaps children.
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()
	if c.cfg.Launch == LaunchProcess {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			cmd := exec.Command(exe, c.cfg.WorkerArgs...)
			cmd.Env = append(os.Environ(),
				envSocket+"="+sockPath,
				fmt.Sprintf("%s=%d", envIndex, i))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			procs = append(procs, cmd)
		}
	} else {
		for i := 0; i < k; i++ {
			go func(i int) {
				conn, derr := net.Dial("unix", sockPath)
				if derr != nil {
					return
				}
				defer conn.Close()
				if serr := serveWorker(conn, i, full, false); serr != nil {
					// Surfaces as a protocol read error coordinator-side;
					// keep the cause for the error message.
					c.conns[i].err.Store(&serr)
				}
			}(i)
		}
	}

	// Accept and identify the K workers.
	type accepted struct {
		conn net.Conn
		r    *bufio.Reader
		idx  int
		err  error
	}
	if dl, ok := ln.(*net.UnixListener); ok {
		dl.SetDeadline(time.Now().Add(60 * time.Second))
	}
	for i := 0; i < k; i++ {
		conn, aerr := ln.Accept()
		if aerr != nil {
			return nil, c.workerError(fmt.Errorf("shard: accepting workers: %v", aerr))
		}
		r := bufio.NewReaderSize(conn, 1<<16)
		typ, payload, merr := readMsg(r, nil)
		if merr != nil || typ != msgJoin || len(payload) != 4 {
			conn.Close()
			return nil, c.workerError(fmt.Errorf("shard: bad JOIN handshake (%v)", merr))
		}
		var self uint32
		wire.NewDec(payload, nil).Coder().U32(&self)
		idx := int(self)
		if idx >= k || c.conns[idx].conn != nil {
			conn.Close()
			return nil, fmt.Errorf("shard: worker joined with bad index %d", idx)
		}
		c.conns[idx].conn = conn
		c.conns[idx].r = r
		c.conns[idx].w = bufio.NewWriterSize(conn, 1<<16)
	}
	defer func() {
		for i := range c.conns {
			if c.conns[i].conn != nil {
				c.conns[i].conn.Close()
			}
		}
	}()

	// HELLO. A resumed run names its checkpoint file; the workers open it
	// themselves (see loadResume for why that is safe).
	hcfg := hello{
		GraphSpec:  c.cfg.GraphSpec,
		Cuts:       c.part.Cuts(),
		Adversary:  c.cfg.Adversary,
		Faults:     c.cfg.Faults,
		Workload:   c.cfg.Workload,
		Sources:    sortNodeIDs(append([]graph.NodeID(nil), c.cfg.Sources...)),
		SegWords:   c.cfg.SegWords,
		KeepTrace:  c.cfg.KeepTrace,
		ResumeFrom: c.cfg.ResumeFrom,
	}
	for i := range c.conns {
		hcfg.Self = i
		payload, jerr := json.Marshal(&hcfg)
		if jerr != nil {
			return nil, jerr
		}
		if werr := writeMsg(c.conns[i].w, msgHello, payload); werr != nil {
			return nil, c.workerError(werr)
		}
	}

	// Window protocol: alternate (read all flushes) / (merge, open). A
	// checkpoint rides a window boundary: when cumulative executed events
	// cross the next SnapshotEvery multiple, the OPENs carry a snapshot
	// flag and each worker sends its engine frame back before running.
	nextSeq := c.resumeSeq
	nextSnapAt := c.cfg.SnapshotEvery
	windowStart := time.Time{}
	first := true
	for {
		maxExec := uint64(0)
		totalSteps := uint64(0)
		for i := range c.conns {
			if err := c.readFlush(&c.conns[i]); err != nil {
				return nil, c.workerError(err)
			}
			f := &c.conns[i].flush
			maxExec = max(maxExec, f.execNs)
			totalSteps += f.steps
		}
		if first {
			c.stats.StartupNs = int64(time.Since(t0))
			first = false
		} else {
			wait := int64(time.Since(windowStart))
			c.stats.WorkerNs += int64(maxExec)
			if over := wait - int64(maxExec); over > 0 {
				c.stats.CommNs += over
			}
		}

		mergeT := time.Now()
		wStart, pending := c.merge(&nextSeq)
		if !pending {
			break
		}
		snap := c.cfg.SnapshotEvery > 0 && totalSteps >= nextSnapAt
		for i := range c.conns {
			if err := c.writeOpen(&c.conns[i], wStart, snap); err != nil {
				return nil, c.workerError(err)
			}
		}
		c.stats.MergeNs += int64(time.Since(mergeT))
		if snap {
			snapT := time.Now()
			if err := c.collectSnapshot(nextSeq, totalSteps); err != nil {
				return nil, c.workerError(err)
			}
			c.stats.Snapshots++
			c.stats.SnapshotNs += int64(time.Since(snapT))
			nextSnapAt = (totalSteps/c.cfg.SnapshotEvery + 1) * c.cfg.SnapshotEvery
		}
		c.stats.Windows++
		windowStart = time.Now()
	}

	// FINISH + merge results.
	for i := range c.conns {
		if err := writeMsg(c.conns[i].w, msgFinish, nil); err != nil {
			return nil, c.workerError(err)
		}
	}
	rep = &Report{Cuts: c.part.Cuts(), Shards: make([]ShardInfo, k), Result: async.Result{
		OutSet: make([]bool, full.N()), OutBodies: make([]wire.Body, full.N())}}
	var traces [][]async.TraceEntry
	for i := range c.conns {
		if err := c.readResult(&c.conns[i], rep, i, &traces); err != nil {
			return nil, c.workerError(err)
		}
	}
	if c.cfg.KeepTrace {
		rep.Result.Trace = mergeTraces(traces)
	}
	rep.Stats = c.stats
	for i := range rep.Shards {
		si := &rep.Shards[i]
		rep.Stats.TotalEvents += si.Steps
		if si.SegLive != 0 {
			return nil, fmt.Errorf("shard: worker %d leaked %d arena segments", i, si.SegLive)
		}
		if c.cfg.CeilingMB > 0 && c.cfg.Launch == LaunchProcess && si.HeapMB > c.cfg.CeilingMB {
			return nil, fmt.Errorf("shard: worker %d settled heap %d MB exceeds %d MB ceiling",
				i, si.HeapMB, c.cfg.CeilingMB)
		}
	}
	if c.cfg.Launch == LaunchProcess {
		for _, p := range procs {
			if werr := p.Wait(); werr != nil {
				return nil, fmt.Errorf("shard: worker exited: %v", werr)
			}
		}
		procs = nil
	}
	return rep, nil
}

// workerError augments a protocol error with any in-process worker cause.
func (c *coord) workerError(err error) error {
	for i := range c.conns {
		if werr := c.conns[i].err.Load(); werr != nil {
			return fmt.Errorf("%v (worker %d: %w)", err, i, *werr)
		}
	}
	return err
}

// readFlush decodes one worker's flush into its connection state.
func (c *coord) readFlush(wc *workerConn) error {
	typ, payload, err := readMsg(wc.r, wc.buf)
	if err != nil {
		return err
	}
	wc.buf = payload[:0]
	if typ != msgFlush {
		return fmt.Errorf("shard: expected FLUSH, got message type %d", typ)
	}
	wc.dec.Reset(payload, nil)
	if err := wc.flush.code(wc.dec.Coder()); err != nil {
		return err
	}
	return finish(&wc.dec, "FLUSH")
}

// merge k-way merges the flushed groups by (trigT, trigSeq) — the serial
// engine's schedule-call order — granting each group its count of
// consecutive seqs in merge order and routing its remote calls' frames to
// their destination shard, each with its group's start plus its index.
// Returns the next window's start (the global minimum pending timestamp)
// and whether any event is pending anywhere.
func (c *coord) merge(nextSeq *uint64) (wStart float64, pending bool) {
	for i := range c.conns {
		wc := &c.conns[i]
		wc.open.runs, wc.open.inbound = wc.open.runs[:0], wc.open.inbound[:0]
		wc.remoteCur = 0
	}
	wStart = math.Inf(1)
	async.MergeRuns(c.mergeCur, len(c.conns),
		func(i int) []logGroup { return c.conns[i].flush.groups },
		groupLess,
		func(from int, g *logGroup) bool {
			wc := &c.conns[from]
			start := *nextSeq
			*nextSeq += uint64(g.count)
			if runs := wc.open.runs; len(runs) > 0 && runs[len(runs)-1].Start+uint64(runs[len(runs)-1].Len) == start {
				runs[len(runs)-1].Len += g.count
			} else {
				wc.open.runs = append(runs, async.ShardRun{Start: start, Len: g.count})
			}
			rs := wc.flush.remotes[wc.remoteCur : wc.remoteCur+int(g.remotes)]
			wc.remoteCur += int(g.remotes)
			for i := range rs {
				r := &rs[i]
				wStart = min(wStart, r.evT)
				dst := &c.conns[c.part.Owner(r.owner)].open
				dst.inbound = append(dst.inbound, routed{seq: start + uint64(r.idx), evT: r.evT, frame: r.frame})
				c.stats.Frames++
				c.stats.FrameBytes += uint64(len(r.frame))
			}
			return true
		})
	for i := range c.conns {
		f := &c.conns[i].flush
		wStart = min(wStart, f.localMin)
		if f.hasMin {
			wStart = min(wStart, f.minT)
		}
	}
	return wStart, !math.IsInf(wStart, 1)
}

func groupLess(a, b *logGroup) bool {
	if a.trigT != b.trigT {
		return a.trigT < b.trigT
	}
	return a.trigSeq < b.trigSeq
}

// writeOpen sends one worker its grant runs and routed inbound events,
// plus the snapshot flag requesting an engine frame before the window runs.
func (c *coord) writeOpen(wc *workerConn, wStart float64, snap bool) error {
	wc.open.wStart, wc.open.snap = wStart, snap
	wc.enc.Reset()
	wc.open.code(wc.enc.Coder())
	return writeMsg(wc.w, msgOpen, wc.enc.Bytes())
}

// collectSnapshot reads one engine frame per worker (the response to a
// snapshot-flagged OPEN) and seals them, with the run's configuration and
// the frozen grant counter, into the checkpoint file.
func (c *coord) collectSnapshot(nextSeq, totalSteps uint64) error {
	frames := make([][]byte, len(c.conns))
	for i := range c.conns {
		wc := &c.conns[i]
		typ, payload, err := readMsg(wc.r, nil)
		if err != nil {
			return err
		}
		if typ != msgSnapFrame {
			return fmt.Errorf("shard: expected SNAPFRAME, got message type %d", typ)
		}
		frames[i] = payload
	}
	hdr := snapHeader{
		GraphSpec: c.cfg.GraphSpec,
		Adversary: c.cfg.Adversary,
		Faults:    c.cfg.Faults,
		Workload:  c.cfg.Workload,
		Sources:   sortNodeIDs(append([]graph.NodeID(nil), c.cfg.Sources...)),
		SegWords:  c.cfg.SegWords,
		KeepTrace: c.cfg.KeepTrace,
		Shards:    c.part.K(),
		NextSeq:   nextSeq,
		Steps:     totalSteps,
	}
	return writeSnapshotFile(c.cfg.SnapshotPath, &hdr, frames)
}

// readResult decodes one worker's RESULT and folds it into the report.
func (c *coord) readResult(wc *workerConn, rep *Report, idx int, traces *[][]async.TraceEntry) error {
	typ, payload, err := readMsg(wc.r, wc.buf)
	if err != nil {
		return err
	}
	wc.buf = payload[:0]
	if typ != msgResult {
		return fmt.Errorf("shard: expected RESULT, got message type %d", typ)
	}
	m := resultMsg{res: async.Result{OutSet: rep.Result.OutSet, OutBodies: rep.Result.OutBodies}}
	m.lo, m.hi = c.part.Range(idx)
	wc.dec.Reset(payload, nil)
	if err := m.code(wc.dec.Coder()); err != nil {
		return err
	}
	if err := finish(&wc.dec, "RESULT"); err != nil {
		return err
	}
	res := &rep.Result
	res.Time = max(res.Time, m.res.Time)
	res.QuiesceTime = max(res.QuiesceTime, m.res.QuiesceTime)
	res.Msgs += m.res.Msgs
	res.Acks += m.res.Acks
	res.Dropped += m.res.Dropped
	res.Retrans += m.res.Retrans
	res.Undeliverable += m.res.Undeliverable
	rep.Shards[idx] = m.info
	if res.PerProto == nil && len(m.res.PerProto) > 0 {
		res.PerProto = m.res.PerProto
	} else {
		for p, n := range m.res.PerProto {
			res.PerProto[p] += n
		}
	}
	if c.cfg.KeepTrace {
		*traces = append(*traces, m.res.Trace)
	}
	return nil
}

// mergeTraces k-way merges per-shard delivery traces by (T, Seq); shards
// record their local deliveries in that order already.
func mergeTraces(traces [][]async.TraceEntry) []async.TraceEntry {
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	out := make([]async.TraceEntry, 0, total)
	async.MergeRuns(make([]int, len(traces)), len(traces),
		func(k int) []async.TraceEntry { return traces[k] },
		async.TraceLess,
		func(_ int, te *async.TraceEntry) bool { out = append(out, *te); return true })
	return out
}
