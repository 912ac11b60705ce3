package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	cedarfs "repro"
)

// withStdin feeds data to os.Stdin for one run() call.
func withStdin(t *testing.T, data []byte, fn func()) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	done := make(chan struct{})
	go func() {
		w.Write(data)
		w.Close()
		close(done)
	}()
	fn()
	<-done
	os.Stdin = old
}

// captureStdout collects what fn prints.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	fn()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	return out
}

func TestCLIRoundTripWithCrash(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")

	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatalf("format: %v", err)
	}

	content := []byte("persisted through the image file")
	withStdin(t, content, func() {
		if err := run(img, false, []string{"put", "notes.txt"}); err != nil {
			t.Fatalf("put: %v", err)
		}
	})

	out := captureStdout(t, func() {
		if err := run(img, false, []string{"get", "notes.txt"}); err != nil {
			t.Fatalf("get: %v", err)
		}
	})
	if !bytes.Equal(out, content) {
		t.Fatalf("get = %q", out)
	}

	// ls sees the file.
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"ls"}); err != nil {
			t.Fatalf("ls: %v", err)
		}
	})
	if !bytes.Contains(out, []byte("notes.txt")) {
		t.Fatalf("ls output: %q", out)
	}

	// stat works.
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"stat", "notes.txt"}); err != nil {
			t.Fatalf("stat: %v", err)
		}
	})
	if !bytes.Contains(out, []byte("notes.txt!1")) {
		t.Fatalf("stat output: %q", out)
	}

	// Crash the volume; the next command must recover and still see the
	// file (it was committed by the clean finish of `put`).
	if err := run(img, false, []string{"crash"}); err != nil {
		t.Fatalf("crash: %v", err)
	}
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"get", "notes.txt"}); err != nil {
			t.Fatalf("get after crash: %v", err)
		}
	})
	if !bytes.Equal(out, content) {
		t.Fatalf("get after crash = %q", out)
	}

	// rm removes it.
	if err := run(img, false, []string{"rm", "notes.txt"}); err != nil {
		t.Fatalf("rm: %v", err)
	}
	if err := run(img, false, []string{"get", "notes.txt"}); err == nil {
		t.Fatal("get after rm succeeded")
	}

	// info and fsck run clean.
	if err := run(img, false, []string{"info"}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run(img, false, []string{"fsck"}); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := run(img, false, []string{"get", "x"}); err == nil {
		t.Fatal("get on missing image succeeded")
	}
	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatal(err)
	}
	if err := run(img, false, []string{"bogus-command"}); err == nil {
		t.Fatal("bogus command accepted")
	}
	if err := run(img, false, []string{"put"}); err == nil {
		t.Fatal("put without name accepted")
	}
}

func TestCLIBurstRecovers(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := run(img, false, []string{"burst", "30"}); err != nil {
			t.Fatalf("burst: %v", err)
		}
	})
	if !bytes.Contains(out, []byte("crashed")) {
		t.Fatalf("burst output: %q", out)
	}
	// The next command recovers; committed burst files are listed.
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"ls", "burst/"}); err != nil {
			t.Fatalf("ls after burst: %v", err)
		}
	})
	if !bytes.Contains(out, []byte("burst/f0000")) {
		t.Fatalf("no burst files after recovery: %q", out)
	}
	// Files committed by the periodic forces must be present.
	if !bytes.Contains(out, []byte("burst/f0020")) {
		t.Fatalf("committed burst file missing: %q", out)
	}
}

func TestCLIScrubAndSalvage(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatal(err)
	}
	content := []byte("survives a name-table rebuild")
	withStdin(t, content, func() {
		if err := run(img, false, []string{"put", "notes.txt"}); err != nil {
			t.Fatalf("put: %v", err)
		}
	})

	// A healthy volume scrubs clean.
	out := captureStdout(t, func() {
		if err := run(img, false, []string{"scrub"}); err != nil {
			t.Fatalf("scrub: %v", err)
		}
	})
	if !bytes.Contains(out, []byte("repaired 0 copies")) || !bytes.Contains(out, []byte("(name-table pass ")) || !bytes.Contains(out, []byte(", leader pass ")) {
		t.Fatalf("scrub output: %q", out)
	}

	// Salvage rebuilds the name table from leader pages; the file survives.
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"salvage"}); err != nil {
			t.Fatalf("salvage: %v", err)
		}
	})
	if !bytes.Contains(out, []byte("recovered 1 files")) {
		t.Fatalf("salvage output: %q", out)
	}
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"get", "notes.txt"}); err != nil {
			t.Fatalf("get after salvage: %v", err)
		}
	})
	if !bytes.Equal(out, content) {
		t.Fatalf("get after salvage = %q", out)
	}
}

func TestCLIJSONAndExitCodes(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatal(err)
	}
	withStdin(t, []byte("json check"), func() {
		if err := run(img, false, []string{"put", "j.txt"}); err != nil {
			t.Fatal(err)
		}
	})

	// verify (the fsck alias) with -json emits a parseable, consistent report.
	out := captureStdout(t, func() {
		if err := run(img, true, []string{"verify"}); err != nil {
			t.Fatalf("verify -json: %v", err)
		}
	})
	var vr struct {
		Entries    int      `json:"entries"`
		Consistent bool     `json:"consistent"`
		Problems   []string `json:"problems"`
	}
	if err := json.Unmarshal(out, &vr); err != nil {
		t.Fatalf("verify JSON: %v\n%s", err, out)
	}
	if !vr.Consistent || vr.Entries == 0 || len(vr.Problems) != 0 {
		t.Fatalf("unexpected verify report: %+v", vr)
	}

	// scrub -json on a healthy volume.
	out = captureStdout(t, func() {
		if err := run(img, true, []string{"scrub"}); err != nil {
			t.Fatalf("scrub -json: %v", err)
		}
	})
	var sr struct {
		NTPagesChecked   int   `json:"nt_pages_checked"`
		NTLost           int   `json:"nt_lost"`
		ElapsedSim       int64 `json:"elapsed_sim_ns"`
		NTElapsedSim     int64 `json:"nt_elapsed_sim_ns"`
		LeaderElapsedSim int64 `json:"leader_elapsed_sim_ns"`
	}
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatalf("scrub JSON: %v\n%s", err, out)
	}
	if sr.NTElapsedSim <= 0 || sr.LeaderElapsedSim <= 0 || sr.NTElapsedSim+sr.LeaderElapsedSim >= sr.ElapsedSim {
		t.Fatalf("scrub report's name-table pass time %d and leader pass time %d not inside the pass's %d",
			sr.NTElapsedSim, sr.LeaderElapsedSim, sr.ElapsedSim)
	}
	if sr.NTPagesChecked == 0 || sr.NTLost != 0 {
		t.Fatalf("unexpected scrub report: %+v", sr)
	}

	// salvage -json; a healthy image salvages without problems.
	out = captureStdout(t, func() {
		if err := run(img, true, []string{"salvage"}); err != nil {
			t.Fatalf("salvage -json: %v", err)
		}
	})
	var sv struct {
		FilesRecovered int      `json:"files_recovered"`
		Problems       []string `json:"problems"`
	}
	if err := json.Unmarshal(out, &sv); err != nil {
		t.Fatalf("salvage JSON: %v\n%s", err, out)
	}
	if sv.FilesRecovered == 0 || len(sv.Problems) != 0 {
		t.Fatalf("unexpected salvage report: %+v", sv)
	}

	// Usage errors carry the errUsage sentinel (exit 2).
	if err := run(img, false, []string{"nonsense"}); !errors.Is(err, errUsage) {
		t.Fatalf("unknown command: %v", err)
	}
	if err := run(img, false, []string{"put"}); !errors.Is(err, errUsage) {
		t.Fatalf("missing operand: %v", err)
	}
	if err := run(img, false, []string{"crashcheck", "-bogus"}); !errors.Is(err, errUsage) {
		t.Fatalf("bad crashcheck flag: %v", err)
	}
}

func TestCLICrashcheckSingleState(t *testing.T) {
	// Re-executing one state by id is the repro path printed on violations;
	// it must run clean end to end and report exactly one state.
	out := captureStdout(t, func() {
		if err := run("unused.img", true, []string{"crashcheck", "-seed", "3", "-ops", "40", "-state", "5"}); err != nil {
			t.Fatalf("crashcheck: %v", err)
		}
	})
	var cr struct {
		States       int     `json:"states"`
		MountFails   int     `json:"mount_failures"`
		Violations   []any   `json:"violations"`
		StatesPerSec float64 `json:"states_per_sec"`
	}
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("crashcheck JSON: %v\n%s", err, out)
	}
	if cr.States != 1 || cr.MountFails != 0 || len(cr.Violations) != 0 {
		t.Fatalf("unexpected crashcheck report: %+v", cr)
	}
	if cr.StatesPerSec <= 0 {
		t.Fatalf("states/sec not reported: %+v", cr)
	}
}

func TestCLICrashcheckSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	out := captureStdout(t, func() {
		if err := run("unused.img", false, []string{"crashcheck", "-seed", "2", "-ops", "60", "-states", "40"}); err != nil {
			t.Fatalf("crashcheck sweep: %v", err)
		}
	})
	for _, want := range []string{"explored 40/", "states/sec", "simulated recovery time", "PASS"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestCLICrashcheckNested(t *testing.T) {
	// Bounded depth-2 smoke: a handful of outer states, each with its
	// recovery crashed at sampled epochs and recovered again. Exit-code
	// contract unchanged: PASS is exit 0.
	out := captureStdout(t, func() {
		if err := run("unused.img", false, []string{"crashcheck", "-nested",
			"-depth", "2", "-seed", "4", "-ops", "40", "-states", "8", "-inner", "3"}); err != nil {
			t.Fatalf("nested crashcheck: %v", err)
		}
	})
	for _, want := range []string{"nested:", "inner (depth-2) states", "recovery-of-recovery time", "PASS"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("nested output missing %q:\n%s", want, out)
		}
	}
	// Unsupported depth and fault composition are usage-level errors.
	if err := run("unused.img", false, []string{"crashcheck", "-nested", "-depth", "3"}); err == nil {
		t.Fatal("depth 3 accepted")
	}
	if err := run("unused.img", false, []string{"crashcheck", "-nested", "-decay", "0.01"}); err == nil {
		t.Fatal("nested with decay accepted")
	}
}

// TestStatsCommand checks both renderings of the stats command: the text
// summary's section lines and the -json snapshot, which must decode back
// into the public Stats type.
func TestStatsCommand(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatalf("format: %v", err)
	}
	withStdin(t, []byte("stats probe"), func() {
		if err := run(img, false, []string{"put", "a.txt"}); err != nil {
			t.Fatalf("put: %v", err)
		}
	})

	out := captureStdout(t, func() {
		if err := run(img, false, []string{"stats"}); err != nil {
			t.Fatalf("stats: %v", err)
		}
	})
	for _, want := range []string{"ops:", "cache:", "commit:", "sectors written home in", "commit deadline:", "(fixed)", "disk:", "disk by region (I/Os/sectors/simulated busy and its rotational wait", "nt-a", " rot ", "streams: 0/0 extensions in place/elsewhere; read-ahead", "recovery: clean shutdown", "recovery phases (simulated): replay", "pages swept in", "stale leaves decoded and dropped; arm ", "· hidden ", "faults:"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	// A staged mount has no intent queue to report.
	if bytes.Contains(out, []byte("intent queue:")) {
		t.Fatalf("staged stats output reports an intent queue:\n%s", out)
	}

	out = captureStdout(t, func() {
		if err := run(img, true, []string{"stats"}); err != nil {
			t.Fatalf("stats -json: %v", err)
		}
	})
	var st cedarfs.Stats
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("stats -json does not decode into cedarfs.Stats: %v\n%s", err, out)
	}
	for _, want := range []string{`"Alloc":`, `"ExtendsInPlace":`, `"ReadAheadUsed":`, `"ReadAheadWasted":`, `"Promotions":`,
		`"scan_arm_sim_ns":`, `"scan_pool_sim_ns":`, `"scan_hidden_sim_ns":`, `"sweep_stale_leaves":`,
		`"Seek":`, `"Rotation":`, `"Transfer":`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("stats -json missing %s:\n%s", want, out)
		}
	}
	// A fresh mount has no logical operations yet, but opening the image
	// always costs device reads.
	if st.Disk.Ops == 0 || st.Disk.Reads == 0 {
		t.Fatalf("stats -json disk counters empty: %+v", st.Disk)
	}
	// The per-region split covers the device ops (all but the root and
	// salvage-checkpoint reads that precede the volume and its observer).
	var regionOps int64
	for _, r := range st.DiskRegions {
		regionOps += r.Read.Ops + r.Write.Ops
		for _, io := range []cedarfs.DiskRegionIO{r.Read, r.Write} {
			if io.Busy < io.Seek+io.Rotation+io.Transfer || io.Ops > 0 && io.Transfer <= 0 {
				t.Fatalf("stats -json region %s: busy %v is not seek %v + rotation %v + transfer %v (+ stall)",
					r.Region, io.Busy, io.Seek, io.Rotation, io.Transfer)
			}
		}
	}
	if len(st.DiskRegions) != 5 || regionOps == 0 || regionOps > int64(st.Disk.Ops) {
		t.Fatalf("stats -json regions cover %d of %d ops: %+v", regionOps, st.Disk.Ops, st.DiskRegions)
	}

	// -async mounts through the intent queue with the adaptive controller:
	// the text summary grows the queue lines and the JSON snapshot carries
	// IntentStats.
	mountAsync = true
	defer func() { mountAsync = false }()
	withStdin(t, []byte("stats probe async"), func() {
		if err := run(img, false, []string{"put", "b.txt"}); err != nil {
			t.Fatalf("async put: %v", err)
		}
	})
	out = captureStdout(t, func() {
		if err := run(img, false, []string{"stats"}); err != nil {
			t.Fatalf("async stats: %v", err)
		}
	})
	for _, want := range []string{"(adaptive)", "intent queue:", "applier busy"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("async stats output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() {
		if err := run(img, true, []string{"stats"}); err != nil {
			t.Fatalf("async stats -json: %v", err)
		}
	})
	st = cedarfs.Stats{}
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("async stats -json does not decode: %v\n%s", err, out)
	}
	if !st.Intent.Enabled || !st.Commit.Adaptive {
		t.Fatalf("async stats -json missing pipeline state: %+v", st.Intent)
	}
}

func TestCLIWorkersFlag(t *testing.T) {
	img := filepath.Join(t.TempDir(), "vol.img")
	if err := run(img, false, []string{"format"}); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"w/a.txt", "w/b.txt", "w/c.txt"} {
		withStdin(t, bytes.Repeat([]byte{'x'}, 600+i*300), func() {
			if err := run(img, false, []string{"put", name}); err != nil {
				t.Fatal(err)
			}
		})
	}

	// verify -json at two explicit widths: the reports must agree on
	// everything except the worker count and the elapsed phases.
	type report struct {
		Entries    int      `json:"entries"`
		Consistent bool     `json:"consistent"`
		Workers    int      `json:"workers"`
		Problems   []string `json:"problems"`
	}
	verifyAt := func(workers int) report {
		mountWorkers = workers
		defer func() { mountWorkers = 0 }()
		out := captureStdout(t, func() {
			if err := run(img, true, []string{"verify"}); err != nil {
				t.Fatalf("verify -workers %d: %v", workers, err)
			}
		})
		var r report
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatalf("verify JSON: %v\n%s", err, out)
		}
		return r
	}
	seq, wide := verifyAt(1), verifyAt(4)
	if seq.Workers != 1 || wide.Workers != 4 {
		t.Fatalf("reported workers %d and %d, want 1 and 4", seq.Workers, wide.Workers)
	}
	if seq.Entries != wide.Entries || !seq.Consistent || !wide.Consistent ||
		len(seq.Problems) != 0 || len(wide.Problems) != 0 {
		t.Fatalf("width changed the verify report: %+v vs %+v", seq, wide)
	}

	// salvage honors the width too and reports it with the phase split.
	mountWorkers = 4
	defer func() { mountWorkers = 0 }()
	var sv struct {
		FilesRecovered int `json:"files_recovered"`
		Workers        int `json:"workers"`
	}
	out := captureStdout(t, func() {
		if err := run(img, true, []string{"salvage"}); err != nil {
			t.Fatalf("salvage -workers 4: %v", err)
		}
	})
	if err := json.Unmarshal(out, &sv); err != nil {
		t.Fatalf("salvage JSON: %v\n%s", err, out)
	}
	if sv.Workers != 4 || sv.FilesRecovered != 3 {
		t.Fatalf("unexpected salvage report: %+v", sv)
	}
}
