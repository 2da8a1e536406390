package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad input exits 2 with a message naming the valid set, before any
// experiment runs.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "spec"}, "auto|single|multi"},
		{[]string{"-exp", "E99"}, "E1,E2"},
		{[]string{"-graph", "grid3d:0x2x2", "-exp", "E16"}, "0×2×2"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, code, out.String(), errOut.String(), tc.want)
		}
	}
}

// -list names every experiment and runs none.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 || !strings.HasPrefix(out.String(), "E1 ") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}
