package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

func TestByName(t *testing.T) {
	var sb strings.Builder
	if err := Run(&sb, []string{"E10"}, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sparse cover quality") {
		t.Fatalf("unexpected output: %s", sb.String())
	}
	if Run(io.Discard, []string{"E99"}, Options{}) == nil {
		t.Fatal("E99 should be unknown")
	}
}

// TestRegistryOrdered: ids are stable names cited by CHANGES.md and
// DESIGN.md, so retired experiments leave gaps — but every id is "E<n>",
// unique, and the registry lists them in strictly increasing n.
func TestRegistryOrdered(t *testing.T) {
	ids := allIDs()
	if len(ids) == 0 {
		t.Fatal("empty registry")
	}
	prev := 0
	for i, id := range ids {
		n, err := strconv.Atoi(strings.TrimPrefix(id, "E"))
		if err != nil || !strings.HasPrefix(id, "E") {
			t.Fatalf("registry[%d] = %q, want E<n>", i, id)
		}
		if n <= prev {
			t.Fatalf("registry[%d] = %s does not follow E%d", i, id, prev)
		}
		prev = n
	}
	infos := List()
	for i, info := range infos {
		if info.ID != ids[i] || info.Title == "" {
			t.Fatalf("List()[%d] = %+v inconsistent with IDs()", i, info)
		}
	}
}

// TestRunUnknownID: Run rejects bad input before running anything. An
// unknown id's error lists the valid ids (E13 is retired, not renamed),
// and a resume file from an older snapshot version keeps
// wire.ErrSnapVersion reachable through errors.Is.
func TestRunUnknownID(t *testing.T) {
	for _, id := range []string{"bogus", "E13"} {
		err := Run(io.Discard, []string{"E7", id}, Options{})
		if err == nil {
			t.Fatalf("expected error for unknown id %s", id)
		}
		if !strings.Contains(err.Error(), strings.Join(allIDs(), ",")) {
			t.Errorf("error %q does not list the valid ids", err)
		}
	}

	// A version-1 container written out by hand (magic, version, payload
	// length, FNV-1a): everything valid but the version.
	payload := []byte("version-1 payload")
	sum := uint64(14695981039346656037)
	for _, c := range payload {
		sum = (sum ^ uint64(c)) * 1099511628211
	}
	old := []byte{'S', 'N', 'A', 'P', 1, 0, 0, 0}
	old = binary.LittleEndian.AppendUint64(old, uint64(len(payload)))
	old = binary.LittleEndian.AppendUint64(old, sum)
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, append(old, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Run(io.Discard, []string{"E7"}, Options{Resume: path}); !errors.Is(err, wire.ErrSnapVersion) {
		t.Fatalf("Run(Resume: version-1 file) = %v, want ErrSnapVersion", err)
	}
}

// deterministicSubset lists experiments whose outputs carry no wall-clock
// measurements, so their tables must be byte-identical across worker
// counts.
var deterministicSubset = []string{"E7", "E9", "E10", "E11", "E12"}

// TestParallelMatchesSerial is the harness determinism contract: a
// parallel run merges job results in job order, so tables and JSON records
// are byte-identical to the serial run.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps")
	}
	var serial, parallel bytes.Buffer
	if err := Run(&serial, deterministicSubset, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Run(&parallel, deterministicSubset, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("parallel tables differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}

	var serialJSON, parallelJSON bytes.Buffer
	if err := Run(&serialJSON, deterministicSubset, Options{Workers: 1, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if err := Run(&parallelJSON, deterministicSubset, Options{Workers: 8, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parallelJSON.Bytes()) {
		t.Fatal("parallel JSON differs from serial")
	}
}

// TestJSONOutputShape checks the syncbench/v1 document structure: schema
// tag, one experiment entry per requested id, and non-empty row records.
func TestJSONOutputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	var buf bytes.Buffer
	if err := Run(&buf, []string{"E7", "E11"}, Options{JSON: true}); err != nil {
		t.Fatal(err)
	}
	var out jsonDoc
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if out.Schema != "syncbench/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Experiments) != 2 || out.Experiments[0].ID != "E7" || out.Experiments[1].ID != "E11" {
		t.Fatalf("experiments = %+v", out.Experiments)
	}
	for _, e := range out.Experiments {
		if len(e.Rows) == 0 {
			t.Fatalf("experiment %s has no rows", e.ID)
		}
		for _, r := range e.Rows {
			if len(r) == 0 {
				t.Fatalf("experiment %s has an empty record", e.ID)
			}
		}
	}
}

// TestFaultAndStateDet holds E17 and E18 to the det columns they print:
// every crash row's incremental cover repair equals the from-scratch
// rebuild, every checkpointed run restores and finishes byte-identical to
// the uninterrupted one, and a budget-0 schedule ends stalled with
// undeliverable messages rather than silently completing.
func TestFaultAndStateDet(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps")
	}
	var buf bytes.Buffer
	if err := Run(&buf, []string{"E17", "E18"}, Options{JSON: true}); err != nil {
		t.Fatal(err)
	}
	var out jsonDoc
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) != 2 {
		t.Fatalf("got %d experiments, want 2", len(out.Experiments))
	}
	starved := 0
	for _, r := range out.Experiments[0].Rows {
		if det, _ := r["repairDeterministic"].(bool); !det {
			t.Errorf("E17 %v %v: repair diverged from rebuild", r["graph"], r["faults"])
		}
		if !strings.Contains(r["faults"].(string), "budget=0") {
			continue
		}
		starved++
		stalled, _ := r["stalled"].(bool)
		undeliv, _ := r["undeliverable"].(float64)
		if !stalled || undeliv <= 0 {
			t.Errorf("E17 %v %v: stalled=%v undeliverable=%v, want a stall with undeliverable > 0",
				r["graph"], r["faults"], r["stalled"], r["undeliverable"])
		}
	}
	if starved == 0 {
		t.Error("E17 has no budget=0 row")
	}
	for _, r := range out.Experiments[1].Rows {
		if det, _ := r["det"].(bool); !det {
			t.Errorf("E18 %v interval %v: restored run diverged", r["graph"], r["interval"])
		}
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps")
	}
	for _, id := range []string{"E7", "E9", "E11", "E12"} {
		if err := Run(io.Discard, []string{id}, Options{}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// TestE10CoverQualityInvariants re-checks the E10 empirical metrics
// against Theorem 4.21's bounds on the experiment's own graph suite:
// depth = O(d·log³n), congestion = O(log⁴n), membership = O(log n).
func TestE10CoverQualityInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("cover sweeps")
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid10x10", graph.Grid(10, 10)},
		{"er128", graph.RandomConnected(128, 400, 21)},
	}
	for _, tc := range cases {
		logn := bits.Len(uint(tc.g.N()))
		for _, d := range []int{1, 2, 4, 8} {
			q := measureCoverQuality(tc.g, d)
			if q.Clusters == 0 {
				t.Fatalf("%s d=%d: no clusters", tc.name, d)
			}
			if bound := 3*d*logn*logn*logn + 4*d + 8; q.MaxDepth > bound {
				t.Fatalf("%s d=%d: maxDepth %d > O(d·log³n) bound %d", tc.name, d, q.MaxDepth, bound)
			}
			if bound := logn*logn*logn*logn + 8; q.MaxCongestion > bound {
				t.Fatalf("%s d=%d: congestion %d > O(log⁴n) bound %d", tc.name, d, q.MaxCongestion, bound)
			}
			if bound := 4*logn + 4; q.MaxMembership > bound {
				t.Fatalf("%s d=%d: membership %d > O(log n) bound %d", tc.name, d, q.MaxMembership, bound)
			}
		}
	}
}
