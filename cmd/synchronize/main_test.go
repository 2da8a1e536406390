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
		t.Run(spec+"/abfs", func(t *testing.T) {
			code, out, errOut := runCLI("-algo", "abfs", "-graph", spec, "-sources", "0,7")
			if code != 0 || !strings.Contains(out, "outputs-match=true") {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
		})
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
