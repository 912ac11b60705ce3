package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFailsBeforeRunning: a bad -table or -json argument exits at once, with
// nothing printed: no experiment runs before the arguments are known good.
// (Each case would otherwise run for minutes and fail only at the end.)
func TestFailsBeforeRunning(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"unknown table", []string{"-table", "6"}, 2},
		{"one paper table to json", []string{"-table", "2", "-json", tmp}, 2},
		{"missing json dir", []string{"-json", filepath.Join(tmp, "missing")}, 1},
		{"json dir is a file", []string{"-table", "ablations", "-json", file}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%s: benchtab %q exits %d, printing %q and %q to stderr; want exit %d, a message on stderr and nothing run",
				c.name, c.args, code, stdout.String(), stderr.String(), c.code)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) != 1 {
		t.Errorf("the checks left %q behind", left)
	}
}
