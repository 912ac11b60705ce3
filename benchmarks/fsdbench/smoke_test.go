package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func tinyRun(t *testing.T, workload string, seed int64, traced bool) *outcome {
	t.Helper()
	o, err := runWorkload(runOpts{workload: workload, seed: seed, seconds: 1, traced: traced, tiny: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return o
}

// TestEveryMetricOnce runs each workload at smoke-test size, untraced and
// traced, and checks the contract of the output: every catalogued metric
// appears exactly once with a unit and a clock, names are plain, the
// end-to-end ones are all produced and never zero, and no check failed.
func TestEveryMetricOnce(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s catalogued twice", m.Name)
		}
		seen[m.Name] = true
		if !name.MatchString(m.Name) || m.Unit == "" || (m.Clock != "wall" && m.Clock != "sim" && m.Clock != "count") ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad catalogue entry %+v", m)
		}
	}
	for _, w := range workloadWhy {
		for _, traced := range []bool{false, true} {
			o := tinyRun(t, w.Name, 1, traced)
			if o.Failed != 0 {
				t.Errorf("%s traced=%v: %d failed: %v", w.Name, traced, o.Failed, o.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var buf bytes.Buffer
			if err := printTable(&buf, o, defs, !traced); err != nil {
				t.Fatal(err)
			}
			for _, m := range defs {
				if n := strings.Count(buf.String(), "\n"+m.Name+" "); n != 1 {
					t.Errorf("%s: %s printed %d times", w.Name, m.Name, n)
				}
				if !traced && o.Metrics[m.Name] == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, m.Name)
				}
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(o, defs)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if len(line.Metrics) != len(defs) || *line.Attempted < 1 {
				t.Errorf("%s: result line has %d metrics, want %d; attempted %d", w.Name, len(line.Metrics), len(defs), *line.Attempted)
			}
			if traced {
				if _, err := os.Stat(o.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestPaperMixRepeats: the seed, and nothing else, decides the inputs; and
// with one driver and no wall-clock timer the sim-clock and count metrics
// of a seed repeat closely. Not exactly: the volume's flush paths walk Go
// maps, so the order of home writes — and with it seek time, and now and
// then an I/O count — changes from run to run.
func TestPaperMixRepeats(t *testing.T) {
	a, b, c := tinyRun(t, "paper-mix", 1, false), tinyRun(t, "paper-mix", 1, false), tinyRun(t, "paper-mix", 2, false)
	if a.Inputs != b.Inputs || a.Attempted != b.Attempted {
		t.Errorf("seed 1 gave inputs %08x (%d ops) then %08x (%d ops)", a.Inputs, a.Attempted, b.Inputs, b.Attempted)
	}
	if a.Inputs == c.Inputs {
		t.Error("seed 2 reproduced seed 1's inputs: the seed does not reach the workload")
	}
	for _, n := range []string{"sim_ms_per_op", "disk_ios_per_op", "write_amp", "recover_sim_s", "alloc_kb_per_op"} {
		if d := math.Abs(a.Metrics[n]-b.Metrics[n]) / a.Metrics[n]; d > 0.02 {
			t.Errorf("%s: seed 1 gave %v then %v", n, a.Metrics[n], b.Metrics[n])
		}
	}
	if a.Metrics["ok_ratio"] != 1 || b.Metrics["ok_ratio"] != 1 {
		t.Errorf("ok_ratio %v, %v", a.Metrics["ok_ratio"], b.Metrics["ok_ratio"])
	}
}

// TestSteadyStateGuard: a mix whose creates nothing balances must fail the
// run on the guard — set-up has to succeed, and the failure has to be the
// live set having moved, not something unrelated.
func TestSteadyStateGuard(t *testing.T) {
	o, err := runWorkload(runOpts{workload: "remote-meta", seed: 1, seconds: 1, tiny: true, unbalanced: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed == 0 {
		t.Fatal("unbalanced mix passed the steady-state guard")
	}
	if text := strings.Join(o.Problems, "\n"); !strings.Contains(text, "not stationary") {
		t.Errorf("unbalanced mix failed, but not on the guard: %s", text)
	}
}

// TestResolveCrash pins the crash oracle: survivors must be a prefix that
// covers everything confirmed.
func TestResolveCrash(t *testing.T) {
	build := func() (*model, []map[string]fstate) {
		m := newModel()
		m.create("t/a", 10, 1)
		m.startJournal()
		var states []map[string]fstate
		snap := func() {
			c := map[string]fstate{}
			for k, v := range m.files {
				c[k] = v
			}
			states = append(states, c)
		}
		snap()
		m.create("t/b", 20, 2)
		snap()
		m.rename("t/a", "t/c")
		snap()
		m.del("t/b")
		snap()
		m.create("t/c", 30, 3)
		snap()
		return m, states
	}
	for survived := 0; survived <= 4; survived++ {
		m, states := build()
		observe := func(name string) (fstate, error) { return states[survived][name], nil }
		if cut, err := m.resolveCrash(observe, 1); err != nil || (survived >= 1 && cut != survived) || (survived < 1 && cut != -1) {
			t.Errorf("volume at prefix %d with 1 confirmed: cut %d, %v", survived, cut, err)
		} else if cut >= 0 && !sameShape(m.files["t/c"], states[survived]["t/c"]) {
			t.Errorf("prefix %d: model not rolled back: %v", survived, m.files)
		}
	}
	// A volume holding operation 4 without operation 3 is no prefix.
	m, states := build()
	torn := map[string]fstate{"t/c": states[4]["t/c"], "t/b": states[2]["t/b"]}
	if cut, _ := m.resolveCrash(func(name string) (fstate, error) { return torn[name], nil }, 0); cut != -1 {
		t.Errorf("non-prefix state accepted at cut %d", cut)
	}
}

// TestBenchmarkJSON: the file at the repo root is the catalogue, verbatim.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if want := benchmarkJSON(recordedSeconds); string(got) != want {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with: fsdbench -benchmark-json")
	}
}
