package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestShardSnapshotResume is the distributed-snapshot identity matrix: a
// checkpointed K-way run must (a) produce the same result as the
// uncheckpointed run — snapshotting is observation, not perturbation —
// and (b) resume from its last checkpoint at a different shard count K′
// to the same final result, byte for byte (counters, outputs, PerProto,
// full trace). Frames are relocatable, so each K′-way worker picking its
// own records out of the K frames is the part under test.
func TestShardSnapshotResume(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		every    uint64
		resumeKs []int
	}{
		{
			name: "flood",
			cfg: Config{
				GraphSpec: "grid:10x10",
				Workload:  "flood",
				Adversary: "random:7",
				KeepTrace: true,
				Shards:    3,
			},
			every:    150,
			resumeKs: []int{1, 2, 3, 4},
		},
		{
			name: "bfs-faults",
			cfg: Config{
				GraphSpec: "pa:n=150,m=2,seed=5",
				Workload:  "bfs",
				Adversary: "flaky:11",
				Faults:    "drop:p=0.1,budget=3,seed=5",
				KeepTrace: true,
				Shards:    2,
			},
			every:    400,
			resumeKs: []int{1, 3},
		},
		{
			name: "segflood",
			cfg: Config{
				GraphSpec: "grid3d:4x4x4",
				Workload:  "segflood",
				Adversary: "random:5",
				SegWords:  33,
				Shards:    2,
			},
			every:    100,
			resumeKs: []int{1, 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := serialRun(t, tc.cfg)
			path := filepath.Join(t.TempDir(), "ckpt.bin")
			cfg := tc.cfg
			cfg.SnapshotEvery = tc.every
			cfg.SnapshotPath = path
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, rep.Result, want)
			if rep.Stats.Snapshots == 0 {
				t.Fatal("run completed without writing a checkpoint — raise the event count or lower SnapshotEvery")
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatal(err)
			}
			for _, k := range tc.resumeKs {
				t.Run(fmt.Sprintf("resume-k=%d", k), func(t *testing.T) {
					rrep, err := Run(Config{ResumeFrom: path, Shards: k})
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, rrep.Result, want)
					if rrep.Stats.Shards != k {
						t.Errorf("resumed at %d shards, asked for %d", rrep.Stats.Shards, k)
					}
				})
			}
		})
	}
}

// TestShardSnapshotErrors pins the checkpoint configuration and file
// validation: a cadence without a path, a resume from a missing file, and
// a resume from a corrupted, outdated or lying file all fail before any
// worker is spawned; a well-formed file whose frame set is incomplete
// fails in the workers, and the run returns their error.
func TestShardSnapshotErrors(t *testing.T) {
	if _, err := Run(Config{GraphSpec: "grid:4x4", Workload: "flood",
		Adversary: "fixed:0.5", SnapshotEvery: 10}); err == nil {
		t.Error("SnapshotEvery without SnapshotPath accepted")
	}
	if _, err := Run(Config{ResumeFrom: filepath.Join(t.TempDir(), "absent.bin")}); err == nil {
		t.Error("resume from a missing file accepted")
	}

	// Write a real checkpoint, then corrupt it.
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	cfg := Config{
		GraphSpec:     "grid:10x10",
		Workload:      "flood",
		Adversary:     "random:7",
		Shards:        2,
		SnapshotEvery: 100,
		SnapshotPath:  path,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// reseal rewrites the checkpoint's header and frame set.
	reseal := func(edit func(*snapHeader, [][]byte) [][]byte) func([]byte) []byte {
		return func(b []byte) []byte {
			hdr, frames, err := openShardSnapshot(b)
			if err != nil {
				t.Fatal(err)
			}
			out, err := sealShardSnapshot(hdr, edit(hdr, frames))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error  // matched with errors.Is when set
		substr string // must appear in the error when set
	}{
		{name: "truncated", mutate: func(b []byte) []byte { return b[:len(b)/2] }},
		{name: "flipped", mutate: func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{name: "empty", mutate: func([]byte) []byte { return nil }},
		{name: "version", want: wire.ErrSnapVersion, mutate: func(b []byte) []byte {
			// A SnapVersion-1 container written out by hand (magic, version,
			// payload length, FNV-1a): everything valid but the version.
			payload, err := wire.OpenSnapshot(b)
			if err != nil {
				t.Fatal(err)
			}
			sum := uint64(14695981039346656037)
			for _, c := range payload {
				sum = (sum ^ uint64(c)) * 1099511628211
			}
			old := []byte{'S', 'N', 'A', 'P', 1, 0, 0, 0}
			old = binary.LittleEndian.AppendUint64(old, uint64(len(payload)))
			old = binary.LittleEndian.AppendUint64(old, sum)
			return append(old, payload...)
		}},
		{name: "shards-overflow", substr: "shards", mutate: reseal(func(h *snapHeader, f [][]byte) [][]byte {
			h.Shards = 1 << 30 // well sealed, but no file holds a billion frames
			return f
		})},
		{name: "frame-missing", substr: "node records", mutate: reseal(func(h *snapHeader, f [][]byte) [][]byte {
			h.Shards = 1
			return f[:1]
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, tc.name+".bin")
			if err := os.WriteFile(bad, tc.mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Run(Config{ResumeFrom: bad})
			switch {
			case err == nil:
				t.Error("bad checkpoint accepted")
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("error %q does not wrap %q", err, tc.want)
			case !strings.Contains(err.Error(), tc.substr):
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}
