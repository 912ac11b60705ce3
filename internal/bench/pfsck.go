package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The parallel check & repair experiment (pFSCK). Verify and the salvage
// sweep run on a shared worker pool (internal/parscan); this benchmark
// sweeps the pool width over the same seeded image and reports the
// speedup-vs-workers curve for both passes, committed as BENCH_pfsck.json.
//
// Clocks. Every figure here is simulated time. measured_s is a run's elapsed
// on the virtual clock as executed, and the speedups — the headline
// verify_speedup_8 and salvage_sweep_speedup_8 among them — are ratios of
// measured_s. They repeat exactly: one driver issues a pass's device reads in
// address order at every width (DESIGN §17), the workers only check buffers,
// and the pool's balanced critical path runs on the clock's lane beside the
// driver's next read, so a stretch of a pass costs max(arm, cpu/k) whatever
// the scheduler did. There is no formula column: the arm_s / pool_s / hidden_s
// beside each point are the run's own two timelines (the pass's stats), and
// the bound max(arm, pool/k) lives on as a test (TestPFsckShape).
//
// Correctness is asserted, not sampled: every width must produce
// byte-identical Problems / VerifyStats counts and byte-identical
// normalized SalvageStats, or the benchmark fails.

// PFsckRun is one worker-count point on a curve.
type PFsckRun struct {
	Workers   int     `json:"workers"`
	MeasuredS float64 `json:"measured_s"` // simulated elapsed of the run as executed
	Speedup   float64 `json:"speedup"`    // measured, vs the 1-worker run
	ArmS      float64 `json:"arm_s"`      // the device's busy time over the pass
	PoolS     float64 `json:"pool_s"`     // the pool's CPU, all workers summed
	HiddenS   float64 `json:"hidden_s"`   // pool time that ran beside the arm and cost nothing
	Steals    int     `json:"steals"`
}

// PFsckReport is what BENCH_pfsck.json holds.
type PFsckReport struct {
	Clock   string `json:"clock"`
	Model   string `json:"model"`
	Files   int    `json:"files"`
	Entries int    `json:"entries"`

	VerifyDiskS    float64    `json:"verify_disk_s"`
	VerifyCPUS     float64    `json:"verify_cpu_s"`
	VerifyWalkS    float64    `json:"verify_walk_s"` // the name-table walk: serial, nothing runs beside it
	Verify         []PFsckRun `json:"verify"`
	VerifySpeedup8 float64    `json:"verify_speedup_8"`

	SweepSectors    int        `json:"sweep_sectors"`
	SweepDiskS      float64    `json:"sweep_disk_s"`
	SweepCPUS       float64    `json:"sweep_cpu_s"`
	Salvage         []PFsckRun `json:"salvage_sweep"`
	SalvageSpeedup8 float64    `json:"salvage_sweep_speedup_8"`
}

const pfsckModel = "measured_s and every speedup: simulated elapsed of the run as executed — one driver reads stretch i+1 while the pool checks stretch i, so a stretch costs max(arm, cpu/k); " +
	"arm_s, pool_s, hidden_s: the run's own two timelines, from the pass's stats (measured_s = arm_s + pool_s/k - hidden_s, plus Verify's walk CPU); verify_disk_s / sweep_disk_s and the cpu_s beside them are the 1-worker run's arm_s and pool_s, verify_walk_s its name-table walk, which nothing runs beside; " +
	"identical Problems/stats asserted at every width"

// pfsckNormalize zeroes the SalvageStats fields legitimately dependent on
// width or scheduling, leaving everything the determinism contract covers.
func pfsckNormalize(st core.SalvageStats) core.SalvageStats {
	st.Elapsed = 0
	st.SweepElapsed = 0
	st.SweepCPU = 0
	st.SweepArm = 0
	st.SweepHidden = 0
	st.RebuildElapsed = 0
	st.FinalizeElapsed = 0
	st.Steals = 0
	st.Workers = 0
	return st
}

// pfsckAppend adds a run to its curve, with its measured speedup over the
// curve's first (1-worker) point.
func pfsckAppend(curve []PFsckRun, run PFsckRun) []PFsckRun {
	run.Speedup = 1
	if len(curve) > 0 {
		run.Speedup = curve[0].MeasuredS / run.MeasuredS
	}
	return append(curve, run)
}

// PFsckReportRun is the experiment: a large seeded image (a few thousand
// files in the workload's mixed size distribution, where the per-page
// cross-check CPU dominates the ordered device sweeps) swept at widths 1..16.
// The 1-worker run is the baseline the speedups and the determinism oracle
// are anchored to.
func PFsckReportRun() (PFsckReport, error) {
	rep := PFsckReport{
		Clock: "every *_s and speedup: simulated seconds on the virtual clock; files, entries, sweep_sectors: counts; " +
			"steals: a count the real scheduler decides, so it varies run to run",
		Model: pfsckModel,
	}
	widths := []int{1, 2, 4, 8, 16}
	fe, err := newFSD(fsdBenchConfig())
	if err != nil {
		return rep, err
	}
	names, err := workload.PopulateVolume(fe.t, newRng(23), 60_000_000, 64*1024)
	if err != nil {
		return rep, err
	}
	rep.Files = len(names)
	if err := fe.v.Shutdown(); err != nil {
		return rep, err
	}

	// Verify curve: each width mounts its own clone of the clean image.
	var verifySig string
	for i, k := range widths {
		cfg := fsdBenchConfig()
		cfg.CheckWorkers = k
		dc := fe.d.Clone(sim.NewVirtualClock())
		v, _, err := core.Mount(dc, cfg)
		if err != nil {
			return rep, fmt.Errorf("pfsck: mount (workers=%d): %w", k, err)
		}
		st, err := v.Verify()
		if err != nil {
			return rep, fmt.Errorf("pfsck: verify (workers=%d): %w", k, err)
		}
		v.Crash()
		sig := fmt.Sprintf("%d/%d/%d/%d cpu=%s %v",
			st.Entries, st.Leaders, st.LeadersPending, st.Symlinks, st.CheckCPU, st.Problems)
		if i == 0 {
			verifySig = sig
			rep.Entries = st.Entries
			rep.VerifyCPUS = st.CheckCPU.Seconds()
			rep.VerifyDiskS = st.Arm.Seconds()
			rep.VerifyWalkS = st.WalkElapsed.Seconds()
		} else if sig != verifySig {
			return rep, fmt.Errorf("pfsck: verify output diverges at workers=%d:\n got %s\nwant %s", k, sig, verifySig)
		}
		rep.Verify = pfsckAppend(rep.Verify, PFsckRun{
			Workers: k, MeasuredS: st.Elapsed.Seconds(), Steals: st.Steals,
			ArmS: st.Arm.Seconds(), PoolS: st.CheckCPU.Seconds(), HiddenS: st.Hidden.Seconds(),
		})
		if k == 8 {
			rep.VerifySpeedup8 = rep.Verify[i].Speedup
		}
	}

	// Salvage curve: destroy both name-table copies once, then each width
	// salvages its own clone of the destroyed image.
	fe.v.DestroyNameTable()
	var salvageSig string
	for i, k := range widths {
		cfg := fsdBenchConfig()
		cfg.CheckWorkers = k
		dc := fe.d.Clone(sim.NewVirtualClock())
		v, st, err := core.Salvage(dc, cfg)
		if err != nil {
			return rep, fmt.Errorf("pfsck: salvage (workers=%d): %w", k, err)
		}
		v.Crash()
		if st.FilesRecovered < rep.Files {
			return rep, fmt.Errorf("pfsck: salvage (workers=%d) recovered %d of %d files", k, st.FilesRecovered, rep.Files)
		}
		sig := fmt.Sprintf("%+v", pfsckNormalize(st))
		if i == 0 {
			salvageSig = sig
			rep.SweepSectors = st.SectorsScanned
			rep.SweepCPUS = st.SweepCPU.Seconds()
			rep.SweepDiskS = st.SweepArm.Seconds()
		} else if sig != salvageSig {
			return rep, fmt.Errorf("pfsck: salvage output diverges at workers=%d:\n got %s\nwant %s", k, sig, salvageSig)
		}
		rep.Salvage = pfsckAppend(rep.Salvage, PFsckRun{
			Workers: k, MeasuredS: st.SweepElapsed.Seconds(), Steals: st.Steals,
			ArmS: st.SweepArm.Seconds(), PoolS: st.SweepCPU.Seconds(), HiddenS: st.SweepHidden.Seconds(),
		})
		if k == 8 {
			rep.SalvageSpeedup8 = rep.Salvage[i].Speedup
		}
	}
	return rep, nil
}

// Render is the experiment as benchtab prints it.
func (rep PFsckReport) Render() []Table {
	t := Table{
		ID:     "PFsck",
		Title:  "Parallel check & repair: Verify and salvage sweep vs pool width",
		Header: []string{"Workers", "Verify (s)", "Speedup", "hidden (s)", "Sweep (s)", "Speedup", "hidden (s)"},
		Notes: []string{
			fmt.Sprintf("%d files, %d entries", rep.Files, rep.Entries),
			rep.Model,
		},
	}
	for i := range rep.Verify {
		vr, sr := rep.Verify[i], rep.Salvage[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(vr.Workers),
			fmt.Sprintf("%.1f", vr.MeasuredS),
			fmt.Sprintf("%.2fx", vr.Speedup),
			fmt.Sprintf("%.1f", vr.HiddenS),
			fmt.Sprintf("%.1f", sr.MeasuredS),
			fmt.Sprintf("%.2fx", sr.Speedup),
			fmt.Sprintf("%.1f", sr.HiddenS),
		})
	}
	return []Table{t}
}
