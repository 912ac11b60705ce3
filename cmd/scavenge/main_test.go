package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestScavengeRecoversWhatWasPopulated: the demonstration runs to the end on a
// small population — both volumes formatted, filled identically and crashed —
// the scavenger recovers every file the populate step reports, and log replay
// beats it by orders of magnitude.
func TestScavengeRecoversWhatWasPopulated(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 2<<20); err != nil {
		t.Fatalf("scavenge: %v", err)
	}
	out := buf.Bytes()
	num := func(re string) float64 {
		t.Helper()
		m := regexp.MustCompile(re).FindSubmatch(out)
		if m == nil {
			t.Fatalf("output lacks %s:\n%s", re, out)
		}
		n, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	populated := num(`populated FSD volume with (\d+) files`)
	replayed := num(`\((\d+) log records replayed`)
	recovered := num(`(\d+) files recovered`)
	fsd := num(`FSD recovery: ([0-9.]+) s simulated`)
	cfs := num(`CFS scavenge: ([0-9.]+) s simulated`)
	if populated == 0 || recovered != populated || replayed == 0 {
		t.Fatalf("populated %v files, replayed %v log records, scavenged %v files:\n%s", populated, replayed, recovered, out)
	}
	if fsd <= 0 || cfs < 100*fsd {
		t.Fatalf("FSD recovery %v s against a %v s scavenge: want orders of magnitude:\n%s", fsd, cfs, out)
	}
}
