package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// Every algorithm under every synchronizer, plus the asynchronous BFS,
// reproduces the lockstep outputs.
func TestRunMatrix(t *testing.T) {
	for _, spec := range []string{"grid:4x4", "er:n=30,m=60,seed=2"} {
		for _, algo := range []string{"bfs", "flood", "echo", "leader", "mst"} {
			for _, sy := range []string{"main", "alpha", "beta", "gamma"} {
				t.Run(spec+"/"+algo+"/"+sy, func(t *testing.T) {
					code, out, errOut := runCLI("-algo", algo, "-sync", sy, "-graph", spec)
					if code != 0 || !strings.Contains(out, "outputs-match=true") {
						t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
					}
				})
			}
		}
	}
	// path:1 is a source with no neighbors: its echo completes at once.
	for _, c := range []struct{ spec, sources string }{
		{"grid:4x4", "0,7"}, {"er:n=30,m=60,seed=2", "0,7"}, {"path:1", "0"},
	} {
		t.Run(c.spec+"/abfs", func(t *testing.T) {
			code, out, errOut := runCLI("-algo", "abfs", "-graph", c.spec, "-sources", c.sources)
			if code != 0 || !strings.Contains(out, "outputs-match=true") {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
		})
	}
	// A repeated source would join its node twice: refused, naming the id.
	t.Run("grid:6x8/abfs/repeated-source", func(t *testing.T) {
		code, out, errOut := runCLI("-algo", "abfs", "-graph", "grid:6x8", "-sources", "0,0")
		if code != 2 || out != "" || !strings.Contains(errOut, "source 0 is listed twice") {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
		}
	})
}

// A fault that starves a source's echo is reported as a mismatch (exit 1),
// the way -algo bfs reports it, not as a panic.
func TestRunReportsFaultStall(t *testing.T) {
	for _, faults := range []string{"crash:p=0.05,seed=1", "drop:p=0.3,budget=0,seed=7"} {
		code, out, errOut := runCLI("-algo", "abfs", "-graph", "grid:6x6", "-faults", faults)
		if code != 1 || !strings.Contains(out, "outputs-match=false") {
			t.Errorf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", faults, code, out, errOut)
		}
	}
}

// Bad input exits 2 with a message, never a generator panic.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "cycle:2"},
		{"-graph", "er:n=10,m=3"},
		{"-graph", "path:0"},
		{"-graph", "grid"},
		{"-graph", "path:5", "-sources", "9"},
		{"-mode", "spec"},
		{"-algo", "abfs", "-sync", "alpha"},
		{"-sync", "delta"},
		{"-algo", "dfs"},
		{"-faults", "drop:p=2"},
		{"-no-such-flag"},
	} {
		code, out, errOut := runCLI(args...)
		if code != 2 || errOut == "" || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with a message", args, code, out, errOut)
		}
	}
}
