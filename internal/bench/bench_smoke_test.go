package bench

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"
)

// get parses a numeric cell.
func get(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTable1Static(t *testing.T) {
	tab, err := Table1()
	if err != nil || len(tab.Rows) < 4 {
		t.Fatalf("Table1: %v", err)
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "Table 2")
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	// Shape assertions from the paper: FSD wins everywhere except read
	// page, which ties (same hardware).
	for _, op := range []string{"Small create", "Large create", "Open", "Open + Read", "Small delete", "Large delete"} {
		r := byName[op]
		cfsMs, fsdMs := get(t, r[2]), get(t, r[4])
		if fsdMs >= cfsMs {
			t.Errorf("%s: FSD %.1fms not faster than CFS %.1fms", op, fsdMs, cfsMs)
		}
	}
	r := byName["Read page"]
	cfsMs, fsdMs := get(t, r[2]), get(t, r[4])
	if ratio := cfsMs / fsdMs; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("Read page: CFS %.1f vs FSD %.1f should be ~equal", cfsMs, fsdMs)
	}
	// Crash recovery: two orders of magnitude, as in the paper.
	rr := byName["Crash recovery"]
	cfsRec, fsdRec := get(t, rr[2]), get(t, rr[4])
	if cfsRec/fsdRec < 20 {
		t.Errorf("crash recovery speedup %.1f, want >> 20 (paper: 100+)", cfsRec/fsdRec)
	}
	// Deletes should show the paper's dramatic gap (14.5x / 22.8x).
	sd := byName["Small delete"]
	if get(t, sd[2])/get(t, sd[4]) < 5 {
		t.Errorf("small delete speedup %.1f, want > 5", get(t, sd[2])/get(t, sd[4]))
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "Table 3")
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	for _, k := range []string{"100 small creates", "list 100 files", "read 100 small files", "MakeDo"} {
		r := byName[k]
		cfsOps, fsdOps := get(t, r[2]), get(t, r[4])
		if fsdOps >= cfsOps {
			t.Errorf("%s: FSD %v I/Os not fewer than CFS %v", k, fsdOps, cfsOps)
		}
	}
	// Creates: paper factor 5.87; ours should be at least 3.
	r := byName["100 small creates"]
	if get(t, r[2])/get(t, r[4]) < 3 {
		t.Errorf("create I/O factor %.2f, want >= 3", get(t, r[2])/get(t, r[4]))
	}
	// List: the dominant win (paper 48.7x). Ours is smaller because FSD
	// reads both name-table copies and our entries are larger, but the
	// factor must still be large.
	r = byName["list 100 files"]
	if get(t, r[2])/get(t, r[4]) < 6 {
		t.Errorf("list I/O factor %.2f, want >= 6", get(t, r[2])/get(t, r[4]))
	}
}

func TestTable4Shape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "Table 4")
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	// Creates: FSD about half the I/Os of BSD (paper 2.07).
	r := byName["100 small creates"]
	fsdOps, bsdOps := get(t, r[2]), get(t, r[4])
	if f := bsdOps / fsdOps; f < 1.4 {
		t.Errorf("create ratio %.2f, want >= 1.4 (paper 2.07)", f)
	}
	// Reads: near parity (paper 1.05).
	r = byName["read 100 small files"]
	fsdOps, bsdOps = get(t, r[2]), get(t, r[4])
	if f := bsdOps / fsdOps; f < 0.7 || f > 2.0 {
		t.Errorf("read ratio %.2f, want ~1 (paper 1.05)", f)
	}
}

func TestTable5Shape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "Table 5")
	read, write := tab.Rows[0], tab.Rows[1]
	// FSD delivers much more bandwidth than 4.2 BSD (79-80 vs 47).
	if get(t, read[4]) <= get(t, read[8]) {
		t.Errorf("read: FSD BW %s%% not above BSD %s%%", read[4], read[8])
	}
	if get(t, write[4]) <= get(t, write[8]) {
		t.Errorf("write: FSD BW %s%% not above BSD %s%%", write[4], write[8])
	}
	// FSD's CPU copies one chunk while the disk moves the next, so its two
	// shares add up to more than the whole, as the paper's do (27 + 79,
	// 28 + 80).
	for _, r := range [][]string{read, write} {
		if sum := get(t, r[2]) + get(t, r[4]); sum <= 100 {
			t.Errorf("%s: FSD %%CPU + %%BW = %v, want > 100 (the copy overlaps the transfer)", r[0], sum)
		}
	}
	// BSD bandwidth capped near half by the rotational gap.
	if bw := get(t, read[8]); bw < 30 || bw > 65 {
		t.Errorf("BSD read bandwidth %v%%, want ~47", bw)
	}
	// BSD write path is CPU-saturated (paper 95%).
	if cpu := get(t, write[6]); cpu < 70 {
		t.Errorf("BSD write CPU %v%%, want high (paper 95)", cpu)
	}
}

func TestGroupCommitShape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "GC")
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if f := get(t, byName["metadata I/O reduction factor (vs CFS)"][2]); f < 2 {
		t.Errorf("metadata reduction %.2f, want >= 2 (paper 2.98)", f)
	}
	if f := get(t, byName["total I/O reduction factor (vs CFS)"][2]); f < 1.5 {
		t.Errorf("total reduction %.2f, want >= 1.5 (paper 2.34)", f)
	}
	if v := get(t, byName["smallest possible record (1 image, sectors)"][2]); v != 7 {
		t.Errorf("smallest record %v sectors, want 7", v)
	}
	// Batching: each logged image absorbs at least two staged ones on the
	// back-to-back bulk update.
	var staged, logged int
	if _, err := fmt.Sscanf(byName["images staged / images logged"][2], "%d / %d", &staged, &logged); err != nil {
		t.Fatalf("images staged / images logged: %v", err)
	}
	if logged == 0 || staged < 2*logged {
		t.Errorf("images staged / logged = %d / %d, want a factor of at least 2", staged, logged)
	}
}

// TestModelValidationShape holds §6's model to the measurement: the four FSD
// rows within 15 %, the CFS rows within 25 % (the paper claims 5 %). The FSD
// large create's script pays only its first chunk's copy up front and hides
// the rest under the transfers, as the data path does.
func TestModelValidationShape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "Model")
	if worst := MaxErrorPct(tab); worst > 25 {
		t.Errorf("worst model error %.1f%%, want <= 25%% (paper claims 5%%)", worst)
	}
	for _, r := range tab.Rows {
		switch r[0] {
		case "FSD open", "FSD small create", "FSD small delete", "FSD large create":
			if e := math.Abs(get(t, r[3])); e > 15 {
				t.Errorf("%s: model %s ms vs measured %s ms, error %s%%, want within 15%%", r[0], r[1], r[2], r[3])
			}
		}
	}
}

// TestSpansMeasureTheClock: the span histograms measure the same simulated
// time the stopwatch harness does. Over 200 creates, opens and deletes on one
// volume, each operation's span latency sum equals the virtual clock's advance
// exactly, so a table may read either.
func TestSpansMeasureTheClock(t *testing.T) {
	fe, err := newFSD(fsdBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	name := func(i int) string { return fmt.Sprintf("sp/c%04d", i) }
	for _, op := range []struct {
		span string
		fn   func(i int) error
	}{
		{"create", func(i int) error { _, err := fe.v.Create(name(i), []byte{1}); return err }},
		{"open", func(i int) error { _, err := fe.v.Open(name(i), 0); return err }},
		{"delete", func(i int) error { return fe.v.Delete(name(i), 0) }},
	} {
		before, start := fe.v.Stats(), fe.clk.Now()
		for i := 0; i < n; i++ {
			if err := op.fn(i); err != nil {
				t.Fatalf("%s %d: %v", op.span, i, err)
			}
		}
		after, elapsed := fe.v.Stats(), fe.clk.Now()-start
		a, b := after.Spans[op.span], before.Spans[op.span]
		if elapsed <= 0 || a.Count-b.Count != n {
			t.Fatalf("%s: %d spans for %d operations over %v", op.span, a.Count-b.Count, n, elapsed)
		}
		if sum := time.Duration(a.Latency.Sum - b.Latency.Sum); sum != elapsed {
			t.Errorf("%s: spans sum to %v, the clock advanced %v", op.span, sum, elapsed)
		}
	}
}

func TestRecoveryShape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "Recovery")
	// Row order: FSD, VAM, fsck, scavenge.
	var fsd, fsck, scav float64
	for _, r := range tab.Rows {
		var v float64
		if _, perr := fmt.Sscanf(r[2], "%f", &v); perr != nil {
			t.Fatalf("parse %q: %v", r[2], perr)
		}
		switch r[0] {
		case "FSD (log replay + VAM rebuild)":
			fsd = v
		case "4.3 BSD fsck (VAX-11/785)":
			fsck = v
		case "CFS scavenge":
			scav = v
		}
	}
	if !(fsd < fsck && fsck < scav) {
		t.Errorf("recovery ordering violated: fsd=%.1f fsck=%.1f scavenge=%.1f", fsd, fsck, scav)
	}
	if fsd > 60 {
		t.Errorf("FSD recovery %.1fs, want tens of seconds at most (paper 1-25s)", fsd)
	}
	if scav < 300 {
		t.Errorf("scavenge %.0fs, want hour-scale (paper 3600+)", scav)
	}
}

func TestRecoveryScalingShape(t *testing.T) {
	t.Parallel()
	tab := table(t, "tables", "RecoveryScaling")
	var prev float64
	for i, r := range tab.Rows {
		rec := get(t, r[2])
		if i > 0 && rec < prev {
			t.Errorf("recovery time not monotone in occupancy: %v", tab.Rows)
		}
		prev = rec
	}
	lo, hi := get(t, tab.Rows[0][2]), get(t, tab.Rows[len(tab.Rows)-1][2])
	if lo > 5 {
		t.Errorf("near-empty recovery %.1fs, want a few seconds (paper: 1s low end)", lo)
	}
	// The region sweep reads the name table in device order, so a full
	// volume recovers well inside the paper's range rather than at its top.
	if hi < 2 || hi > 25 {
		t.Errorf("full recovery %.1fs, want inside the paper's 1-25s range and above the near-empty case", hi)
	}
}

func TestRobustnessShape(t *testing.T) {
	t.Parallel()
	rep := runOnce[RobustnessReport](t, "robustness")
	// Every decayed duplicate must be healed (the run itself errors on
	// NTLost/problems) and every stuck defect retired to a spare.
	if rep.ScrubRepaired < rep.DecayedSectors/2 {
		t.Errorf("scrub repaired %d copies for %d decayed sectors", rep.ScrubRepaired, rep.DecayedSectors)
	}
	if rep.ScrubRetired != rep.StuckSectors {
		t.Errorf("retired %d sectors, want the %d stuck defects", rep.ScrubRetired, rep.StuckSectors)
	}
	// Salvage must get every file back, and beat the label scavenge it
	// replaces on the same population.
	if rep.SalvageFiles != rep.Files {
		t.Errorf("salvage recovered %d of %d files", rep.SalvageFiles, rep.Files)
	}
	if rep.ScavengeFiles != rep.Files {
		t.Errorf("scavenge recovered %d of %d files", rep.ScavengeFiles, rep.Files)
	}
	if rep.SalvageSpeedup < 1 {
		t.Errorf("salvage slower than scavenge: %.2fx", rep.SalvageSpeedup)
	}
}

func TestCrashSweepShape(t *testing.T) {
	t.Parallel()
	rep := runOnce[CrashSweepReport](t, "crashsweep")
	// The run itself errors on mount failures or oracle violations, so
	// here we only check the sweep's shape and the recovery-time claim.
	if rep.States < 1000 {
		t.Errorf("explored %d crash states, want >= 1000", rep.States)
	}
	if rep.PrefixStates == 0 || rep.ReorderStates == 0 || rep.TornStates == 0 {
		t.Errorf("a state family is missing: prefix=%d reorder=%d torn=%d",
			rep.PrefixStates, rep.ReorderStates, rep.TornStates)
	}
	if rep.TornRecords == 0 || rep.TailDiscarded == 0 {
		t.Errorf("recovery never absorbed damage: torn=%d tail=%d", rep.TornRecords, rep.TailDiscarded)
	}
	if rep.StatesPerSec <= 0 {
		t.Errorf("states/sec not measured: %f", rep.StatesPerSec)
	}
	// Simulated recovery stays inside the paper's observed 1-25 s window
	// (the small sweep geometry sits near the bottom of it).
	if rep.RecoveryMaxS <= 0 || rep.RecoveryMaxS > 25 {
		t.Errorf("max simulated recovery %.2f s outside the paper's window", rep.RecoveryMaxS)
	}
	if rep.RecoveryMedS > rep.RecoveryMaxS || rep.RecoveryMinS > rep.RecoveryMedS {
		t.Errorf("recovery summary not ordered: %f %f %f", rep.RecoveryMinS, rep.RecoveryMedS, rep.RecoveryMaxS)
	}
}

func TestNestedCrashShape(t *testing.T) {
	t.Parallel()
	rep := runOnce[NestedCrashReport](t, "nestedcrash")
	if rep.OuterStates != 300 {
		t.Errorf("explored %d outer states, want 300", rep.OuterStates)
	}
	if rep.InnerStates == 0 || rep.InnerStatesTotal < rep.InnerStates {
		t.Errorf("inner states wrong: %d of %d", rep.InnerStates, rep.InnerStatesTotal)
	}
	if rep.Violations != 0 || rep.MountFailures != 0 || rep.InnerMountFails != 0 {
		t.Errorf("depth-2 failures: %d violations, %d/%d mount failures",
			rep.Violations, rep.MountFailures, rep.InnerMountFails)
	}
	// Recovery-of-recovery must be measured and stay inside the paper's
	// observed 1-25 s window, like the first recovery.
	if rep.RecRecMaxS <= 0 || rep.RecRecMaxS > 25 {
		t.Errorf("max recovery-of-recovery %.2f s outside the paper's window", rep.RecRecMaxS)
	}
	if rep.RecRecMedS > rep.RecRecMaxS || rep.RecRecMinS > rep.RecRecMedS {
		t.Errorf("recovery-of-recovery summary not ordered: %f %f %f",
			rep.RecRecMinS, rep.RecRecMedS, rep.RecRecMaxS)
	}
}
