package cedarfs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchFilesNameTheirClock reads every committed BENCH_*.json and
// requires a non-empty top-level "clock" string: a published number must say
// whether it is simulated time, wall-clock time or a count.
func TestBenchFilesNameTheirClock(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json at the repo root")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]any
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if c, _ := top["clock"].(string); c == "" {
			t.Errorf("%s has no top-level \"clock\" string", p)
		}
	}
}
