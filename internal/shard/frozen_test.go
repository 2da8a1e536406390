package shard

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/wire"
)

// recConn records the bytes read from and written to a connection.
type recConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *recConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// hashMessages folds every FLUSH, OPEN and RESULT message of a recorded
// stream into h, type byte and payload. A FLUSH's execNs (bytes 9..16) is
// a wall-clock reading, so it is zeroed first.
func hashMessages(t *testing.T, h io.Writer, stream []byte) (n int) {
	t.Helper()
	for len(stream) > 0 {
		if len(stream) < 5 {
			t.Fatalf("recorded stream ends inside a message header")
		}
		typ, size := stream[0], int(binary.LittleEndian.Uint32(stream[1:]))
		payload := append([]byte(nil), stream[5:5+size]...)
		stream = stream[5+size:]
		switch typ {
		case msgFlush:
			clear(payload[9:17])
		case msgOpen, msgResult:
		default:
			continue
		}
		h.Write([]byte{typ})
		h.Write(payload)
		n++
	}
	return n
}

// TestShardMessagesFrozen pins the shard protocol's bytes. Two workers are
// served over pipes and driven by the coordinator's own readFlush, merge,
// writeOpen and readResult through a fixed K = 2 run (segment-carrying
// frames, drop faults, a kept trace); a SHA-256 covers every FLUSH, OPEN
// and RESULT payload in stream order. A second hash covers the checkpoint
// file a fixed SnapshotEvery run seals. A change to any message layout or
// to the engine frame fails here.
func TestShardMessagesFrozen(t *testing.T) {
	const (
		wantMessages   = "0c82754532818b2732262abb9311f29b8edcff259d160293ad678bbbe4722f83"
		wantCheckpoint = "a6953100c72fd67e124fb08946d9d034eef692cad6ac224a4fe600efc8a6d3da"
	)
	g, err := graph.FromSpec("grid:6x6")
	if err != nil {
		t.Fatal(err)
	}
	part := graph.PartitionContiguous(g, 2)
	c := &coord{cfg: Config{KeepTrace: true}, part: part, conns: make([]workerConn, 2), mergeCur: make([]int, 2)}
	recs := make([]*recConn, 2)
	errc := make(chan error, 2)
	for i := range c.conns {
		coordEnd, workerEnd := net.Pipe()
		t.Cleanup(func() { coordEnd.Close() })
		go func() {
			defer workerEnd.Close()
			errc <- serveWorker(workerEnd, i, g, false)
		}()
		recs[i] = &recConn{Conn: coordEnd}
		wc := &c.conns[i]
		wc.conn, wc.r, wc.w = recs[i], bufio.NewReader(recs[i]), bufio.NewWriter(recs[i])
		if typ, _, err := readMsg(wc.r, nil); err != nil || typ != msgJoin {
			t.Fatalf("JOIN: type %d, %v", typ, err)
		}
		hcfg, err := json.Marshal(&hello{GraphSpec: "grid:6x6", Cuts: part.Cuts(), Self: i, Adversary: "random:3",
			Faults: "drop:p=0.1,budget=2,seed=5", Workload: "segflood", Sources: []graph.NodeID{0}, SegWords: 3, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMsg(wc.w, msgHello, hcfg); err != nil {
			t.Fatal(err)
		}
	}
	var nextSeq uint64
	for windows := 0; ; windows++ {
		if windows > 100000 {
			t.Fatal("run does not quiesce")
		}
		for i := range c.conns {
			if err := c.readFlush(&c.conns[i]); err != nil {
				t.Fatal(err)
			}
		}
		wStart, pending := c.merge(&nextSeq)
		if !pending {
			break
		}
		for i := range c.conns {
			if err := c.writeOpen(&c.conns[i], wStart, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range c.conns {
		if err := writeMsg(c.conns[i].w, msgFinish, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := &Report{Shards: make([]ShardInfo, 2), Result: async.Result{OutSet: make([]bool, g.N()), OutBodies: make([]wire.Body, g.N())}}
	var traces [][]async.TraceEntry
	for i := range c.conns {
		if err := c.readResult(&c.conns[i], rep, i, &traces); err != nil {
			t.Fatal(err)
		}
	}
	for range c.conns {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if rep.Result.Dropped == 0 || c.stats.Frames == 0 || len(traces) != 2 {
		t.Fatalf("the pinned run must drop messages and route frames: dropped %d, frames %d, %d traces",
			rep.Result.Dropped, c.stats.Frames, len(traces))
	}
	h := sha256.New()
	n := 0
	for _, rc := range recs {
		n += hashMessages(t, h, rc.in.Bytes())
		n += hashMessages(t, h, rc.out.Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantMessages {
		t.Errorf("FLUSH/OPEN/RESULT hash over %d messages = %s, want %s", n, got, wantMessages)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Run(Config{GraphSpec: "grid:12x12", Shards: 2, Workload: "flood", Adversary: "random:7",
		Faults: "drop:p=0.05,budget=3,seed=7", KeepTrace: true, SnapshotEvery: 300, SnapshotPath: path}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(file)
	if got := hex.EncodeToString(sum[:]); got != wantCheckpoint {
		t.Errorf("checkpoint file (%d bytes) hash = %s, want %s", len(file), got, wantCheckpoint)
	}
}

// TestShardCodingAllocs pins that coding a FLUSH (the worker's writeFlush)
// and an OPEN (the coordinator's merge and writeOpen) into reused buffers
// allocates nothing, on 50 groups with 20 remote calls. The FLUSH is
// written here field by field from its documented layout, and writeFlush
// must code the decoded message back to the same bytes.
func TestShardCodingAllocs(t *testing.T) {
	const groups, remotes = 50, 20
	var arena wire.Arena
	raw := wire.NewEnc(&arena)
	raw.Bool(true)
	raw.F64(1)
	raw.U64(0)
	raw.U64(0)
	raw.U32(groups)
	for gi := 0; gi < groups; gi++ {
		raw.F64(float64(gi))
		raw.U64(uint64(gi))
		raw.U32(2)
		if gi >= remotes {
			raw.U32(0)
			continue
		}
		raw.U32(1)
		raw.U32(1)
		raw.F64(float64(gi) + 1)
		raw.I32(int32(20 + gi))
		mark := raw.BeginBlob()
		raw.U8(1)
		raw.I32(1)
		raw.I64(0)
		raw.I32(int32(gi))
		raw.I32(int32(20 + gi))
		seg, w := arena.Alloc(2)
		w[0], w[1] = 7, int32(gi)
		raw.Body(wire.Body{Kind: 1, A: int64(gi), Seg: seg})
		raw.EndBlob(mark)
	}
	raw.F64(math.Inf(1))
	var stream bytes.Buffer
	sw := bufio.NewWriter(&stream)
	if err := writeMsg(sw, msgFlush, raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := &coord{part: graph.PartitionFromCuts([]graph.NodeID{0, 20, 40}), conns: make([]workerConn, 2), mergeCur: make([]int, 2)}
	wc := &c.conns[0]
	wc.r = bufio.NewReader(&stream)
	if err := c.readFlush(wc); err != nil {
		t.Fatal(err)
	}
	c.conns[1].flush.localMin = math.Inf(1)

	var coded bytes.Buffer
	cw := bufio.NewWriter(&coded)
	enc := wire.NewEnc(nil)
	if err := writeFlush(cw, enc, &wc.flush); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{msgFlush, 0, 0, 0, 0}, raw.Bytes()...); !bytes.Equal(coded.Bytes()[5:], want[5:]) {
		t.Fatalf("writeFlush codes the decoded FLUSH to %d bytes that differ from the %d written", coded.Len()-5, len(want)-5)
	}
	out := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(20, func() { writeFlush(out, enc, &wc.flush) }); n != 0 {
		t.Errorf("coding a FLUSH allocates %v times, want 0", n)
	}
	for i := range c.conns {
		c.conns[i].w = out
	}
	var seq uint64
	if n := testing.AllocsPerRun(20, func() {
		c.merge(&seq)
		c.writeOpen(&c.conns[1], 0, false)
	}); n != 0 {
		t.Errorf("coding an OPEN allocates %v times, want 0", n)
	}
}
