package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// repoRoot is where the committed BENCH files live.
const repoRoot = "../.."

// notRegenerated names the root BENCH files no record writes: cmd/soak
// records BENCH_server.json, and every number in it is wall clock.
var notRegenerated = []string{"BENCH_server.json"}

// runs holds each record's one run in this test binary. TestRecordsRegenerate
// fills it from parallel subtests; the shape tests read it, and being
// parallel themselves they start only once it has returned. So one go test
// runs every experiment once, and two at a time on two cores.
var runs = func() map[string]*memo {
	m := make(map[string]*memo)
	for _, r := range Records {
		m[r.Name] = &memo{rec: r}
	}
	return m
}()

type memo struct {
	rec  Record
	once sync.Once
	rep  Report
	err  error
}

// runOnce returns the report of the named record, running it on first use.
// Under -short it skips the test: every record is a full-volume experiment.
func runOnce[R Report](t *testing.T, name string) R {
	t.Helper()
	if testing.Short() {
		t.Skipf("runs the experiment behind BENCH_%s.json", name)
	}
	r := runs[name]
	r.once.Do(func() { r.rep, r.err = r.rec.Run() })
	if r.err != nil {
		t.Fatalf("%s: %v", name, r.err)
	}
	return r.rep.(R)
}

// table returns the table with the given ID from a TablesRecord.
func table(t *testing.T, record, id string) Table {
	t.Helper()
	for _, tab := range runOnce[TablesRecord](t, record).Tables {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("BENCH_%s.json has no %q", record, id)
	return Table{}
}

// TestRecordsRegenerate runs every record once, in parallel subtests, writes
// it as benchtab -json does and compares it with the committed file: every
// field exactly, except the record's Wall keys. A root BENCH_*.json no
// record regenerates fails it as well, unless notRegenerated names it.
func TestRecordsRegenerate(t *testing.T) {
	known := slices.Clone(notRegenerated)
	for _, r := range Records {
		known = append(known, r.File())
	}
	files, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !slices.Contains(known, filepath.Base(f)) {
			t.Errorf("%s is in no record of bench.Records: register its experiment, or list it in notRegenerated", filepath.Base(f))
		}
	}
	for _, r := range Records {
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			rep := runOnce[Report](t, r.Name)
			dir := t.TempDir()
			if err := r.Write(dir, rep); err != nil {
				t.Fatal(err)
			}
			got, want := readJSON(t, filepath.Join(dir, r.File())), readJSON(t, filepath.Join(repoRoot, r.File()))
			for _, d := range diffJSON(r.File(), got, want, r.Wall) {
				t.Error(d)
			}
		})
	}
}

func readJSON(t *testing.T, path string) any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return v
}

// diffJSON lists where got differs from want, skipping object keys in wall.
func diffJSON(path string, got, want any, wall []string) []string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		var out []string
		for k := range w {
			if !slices.Contains(wall, k) {
				out = append(out, diffJSON(path+"."+k, g[k], w[k], wall)...)
			}
		}
		for k := range g {
			if _, ok := w[k]; !ok && !slices.Contains(wall, k) {
				out = append(out, fmt.Sprintf("%s.%s: regenerated %v, not in the committed file", path, k, g[k]))
			}
		}
		slices.Sort(out)
		return out
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			break
		}
		var out []string
		for i := range w {
			out = append(out, diffJSON(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], wall)...)
		}
		return out
	default:
		if got == want {
			return nil
		}
	}
	return []string{fmt.Sprintf("%s: regenerated %v, committed %v", path, got, want)}
}
