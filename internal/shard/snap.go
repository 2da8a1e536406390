package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Distributed snapshot. The coordinator checkpoints at a FLUSH barrier:
// after a window's grants and routed frames have been applied, every
// pending event lives in exactly one shard's queue and no schedule call is
// staged anywhere, so the union of the K engine frames is the complete
// global state (the classic consistent-cut argument, with the barrier
// standing in for marker messages). The OPEN message carries a snapshot
// flag; flagged workers serialize their engine (async.ShardSnapshotFrame)
// and send it back before running the window, and the coordinator seals
// header + K length-prefixed frames into one file.
//
// Resume rebuilds the run from the file alone: the header replays the
// HELLO configuration, and the frames are relocatable by construction —
// every record is keyed by global id — so each resumed worker opens the
// file, hands all K frames to async.ShardRestoreFrames, and keeps the
// records its own nodes own. A checkpoint taken at K shards restores at any
// K′ with no coordinator-side rewriting; the run-wide ledgers (counters,
// trace) land on whichever worker hosts node 0.

// snapHeader is the sealed file's JSON preamble: everything a resumed
// coordinator needs to rebuild workers byte-identically.
type snapHeader struct {
	GraphSpec string
	Adversary string
	Faults    string
	Workload  string
	Sources   []graph.NodeID
	SegWords  int
	KeepTrace bool
	// Shards is K at checkpoint time (the frame count).
	Shards int
	// NextSeq is the coordinator's grant counter at the barrier; the
	// resumed merge loop continues from it.
	NextSeq uint64
	// Steps is the cumulative executed-event count at the barrier
	// (progress reporting; the authoritative counters ride in frame 0).
	Steps uint64
}

// sealShardSnapshot assembles the checkpoint payload:
//
//	u32 header len | header JSON | K × (u32 frame len | frame)
//
// and seals it with the wire container (magic, version, checksum).
func sealShardSnapshot(hdr *snapHeader, frames [][]byte) ([]byte, error) {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	var e wire.Enc
	e.U32(uint32(len(hb)))
	e.Raw(hb)
	for _, f := range frames {
		e.U32(uint32(len(f)))
		e.Raw(f)
	}
	return wire.SealSnapshot(e.Bytes()), nil
}

// openShardSnapshot parses a sealed checkpoint into its header and the
// per-shard engine frames (views of data).
func openShardSnapshot(data []byte) (*snapHeader, [][]byte, error) {
	payload, err := wire.OpenSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	d := wire.NewDec(payload, nil)
	hb := d.SkipBlob()
	if d.Failed() {
		return nil, nil, fmt.Errorf("shard: truncated snapshot header")
	}
	var hdr snapHeader
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, nil, fmt.Errorf("shard: bad snapshot header: %v", err)
	}
	// Each frame costs at least its 4-byte length, which bounds the count a
	// well-sealed header may claim before anything is allocated for it.
	if hdr.Shards < 1 || hdr.Shards > d.Remaining()/4 {
		return nil, nil, fmt.Errorf("shard: snapshot header claims %d shards over a %d-byte frame section", hdr.Shards, d.Remaining())
	}
	frames := make([][]byte, hdr.Shards)
	for i := range frames {
		frames[i] = d.SkipBlob()
	}
	if err := finish(d, "snapshot"); err != nil {
		return nil, nil, err
	}
	return &hdr, frames, nil
}

// readSnapshotFile opens a checkpoint file: the coordinator to replay its
// header, each resumed worker again for the frames.
func readSnapshotFile(path string) (*snapHeader, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	hdr, frames, err := openShardSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: %s: %w", filepath.Base(path), err)
	}
	return hdr, frames, nil
}

// writeSnapshotFile seals and atomically replaces path (write-temp-rename,
// so a crash mid-checkpoint never corrupts the previous checkpoint).
func writeSnapshotFile(path string, hdr *snapHeader, frames [][]byte) error {
	data, err := sealShardSnapshot(hdr, frames)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// loadResume opens a checkpoint file and folds its header into cfg: the
// workload identity (graph, adversary, faults, workload, sources, trace
// flag) comes from the file — a resume must continue the checkpointed run,
// not a reconfigured one — while execution choices (Shards, Launch,
// snapshot cadence, ceilings) stay the caller's. The coordinator opens the
// file in full (seal, version, header, frame count) so a bad one fails
// before any worker is spawned, then passes its absolute path on in HELLO
// for the workers to open again. That is safe even when the resumed run
// checkpoints back onto the same path: workers read before their first
// FLUSH, the coordinator writes no checkpoint until every first FLUSH is
// in, and checkpoints land by rename. Also returns the grant counter the
// checkpoint froze.
func loadResume(cfg Config) (_ Config, nextSeq uint64, err error) {
	path, err := filepath.Abs(cfg.ResumeFrom)
	if err != nil {
		return cfg, 0, err
	}
	hdr, _, err := readSnapshotFile(path)
	if err != nil {
		return cfg, 0, err
	}
	cfg.ResumeFrom = path
	cfg.GraphSpec = hdr.GraphSpec
	cfg.Adversary = hdr.Adversary
	cfg.Faults = hdr.Faults
	cfg.Workload = hdr.Workload
	cfg.Sources = hdr.Sources
	cfg.SegWords = hdr.SegWords
	cfg.KeepTrace = hdr.KeepTrace
	if hdr.GraphSpec == "" && cfg.Graph == nil {
		return cfg, 0, fmt.Errorf("shard: snapshot carries no graph spec and no pre-built graph was supplied")
	}
	return cfg, hdr.NextSeq, nil
}
