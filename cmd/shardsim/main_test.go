package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad input exits 2 with a message, before any worker starts.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-sources", "1,,2"},
		{"-sources", "-1"},
		{"-resume", "run.ckpt", "-verify"},
		{"-no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || errOut.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with a message", args, code, out.String(), errOut.String())
		}
	}
}

// An in-process sharded run matches the serial engine.
func TestRunInProcVerify(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-graph", "grid:8x8", "-shards", "2", "-inproc", "-verify"}, &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "verify: OK") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}
