package bench

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/workload"
)

// The media-fault experiment. The paper's redundancy (doubled name table,
// dual-copy log records, replicated roots) is passive: a decayed copy is
// only repaired if a read happens to hit it. This benchmark measures the
// active half added on top — the online scrubber — and the last-ditch
// floor under it, the salvage mount, against the baseline the paper
// retired: the CFS scavenger, which rebuilt structure from per-sector
// labels and "takes over an hour" on a full drive.
//
// Stage 1 populates a full-size volume, decays one home copy of every
// allocated name-table page (hard latent errors, silent bit rot, and a few
// stuck physical defects) plus the root replica and a log anchor copy, and
// times one scrub pass. Stage 2 then destroys BOTH name-table copies and
// times the salvage sweep that rebuilds the volume from leader pages. A
// CFS volume with the same file population is crashed and scavenged for
// the comparison row.

// RobustnessReport is what BENCH_robustness.json holds. Elapsed times are
// simulated (virtual-clock) values, like every other table.
type RobustnessReport struct {
	Clock           string  `json:"clock"`
	Model           string  `json:"model"`
	Files           int     `json:"files"`
	DecayedSectors  int     `json:"decayed_sectors"`
	StuckSectors    int     `json:"stuck_sectors"`
	ScrubSectors    int     `json:"scrub_sectors_checked"`
	ScrubRepaired   int     `json:"scrub_copies_repaired"`
	ScrubRetired    int     `json:"scrub_sectors_retired"`
	ScrubElapsedS   float64 `json:"scrub_elapsed_s"`
	ScrubMBPerS     float64 `json:"scrub_mb_per_s"`
	SalvageSectors  int     `json:"salvage_sectors_scanned"`
	SalvageFiles    int     `json:"salvage_files_recovered"`
	SalvageElapsedS float64 `json:"salvage_elapsed_s"`
	ScavengeFiles   int     `json:"cfs_scavenge_files"`
	ScavengeS       float64 `json:"cfs_scavenge_elapsed_s"`
	SalvageSpeedup  float64 `json:"scavenge_over_salvage"`
}

const robustnessModel = "simulated elapsed of each pass as executed, one worker; " +
	"FSD's salvage sweep reads checkpoint interval i+1 while it decodes interval i, so an interval costs max(arm, decode) (DESIGN §17); " +
	"the CFS scavenger, the paper's baseline, is left as the paper describes it — serial: each track of labels is read, then interpreted"

// robustnessPopulate fills a volume with the shared file population: about
// 40 MB across a few hundred files, the same mix for FSD and CFS.
func robustnessPopulate(t workload.Target) (int, error) {
	names, err := workload.PopulateVolume(t, newRng(11), 40_000_000, 96*1024)
	return len(names), err
}

// RobustnessReportRun runs both stages and the CFS baseline.
func RobustnessReportRun() (RobustnessReport, error) {
	rep := RobustnessReport{
		Clock: "every *_s and scrub_mb_per_s: simulated, the virtual clock; everything else: counts and ratios of counts",
		Model: robustnessModel,
	}

	fe, err := newFSD(fsdBenchConfig())
	if err != nil {
		return rep, err
	}
	if rep.Files, err = robustnessPopulate(fe.t); err != nil {
		return rep, err
	}
	if err := fe.v.Force(); err != nil {
		return rep, err
	}

	// Stage 1: concentrated latent decay, one scrub pass heals it all.
	rep.DecayedSectors, rep.StuckSectors = fe.v.InjectLatentDecay(newRng(1987))
	st, err := fe.v.Scrub()
	if err != nil {
		return rep, err
	}
	if st.NTLost > 0 || len(st.Problems) > 0 {
		return rep, fmt.Errorf("scrub did not fully repair: NTLost=%d problems=%v", st.NTLost, st.Problems)
	}
	rep.ScrubSectors = st.SectorsChecked
	rep.ScrubRepaired = st.Repaired()
	rep.ScrubRetired = st.Retired
	rep.ScrubElapsedS = st.Elapsed.Seconds()
	if st.Elapsed > 0 {
		rep.ScrubMBPerS = float64(st.SectorsChecked) * disk.SectorSize / 1e6 / st.Elapsed.Seconds()
	}

	// Stage 2: both name-table copies gone; salvage sweeps the data region
	// for leader pages and rebuilds the volume.
	if err := fe.v.Shutdown(); err != nil {
		return rep, err
	}
	fe.v.DestroyNameTable()
	v2, sst, err := core.Salvage(fe.d, fsdBenchConfig())
	if err != nil {
		return rep, err
	}
	if sst.FilesRecovered < rep.Files {
		return rep, fmt.Errorf("salvage recovered %d of %d files", sst.FilesRecovered, rep.Files)
	}
	rep.SalvageSectors = sst.SectorsScanned
	rep.SalvageFiles = sst.FilesRecovered
	rep.SalvageElapsedS = sst.Elapsed.Seconds()
	if err := v2.Shutdown(); err != nil {
		return rep, err
	}

	// Baseline: the CFS scavenger rebuilds the same population from labels.
	ce, err := newCFS()
	if err != nil {
		return rep, err
	}
	if _, err := robustnessPopulate(ce.t); err != nil {
		return rep, err
	}
	ce.v.Crash()
	ce.d.Revive()
	_, cst, err := cfs.Scavenge(ce.d, cfs.Config{})
	if err != nil {
		return rep, err
	}
	rep.ScavengeFiles = cst.FilesRecovered
	rep.ScavengeS = cst.Elapsed.Seconds()
	if rep.SalvageElapsedS > 0 {
		rep.SalvageSpeedup = rep.ScavengeS / rep.SalvageElapsedS
	}
	return rep, nil
}

// WriteRobustnessJSON runs the experiment and records it at path
// (BENCH_robustness.json at the repo root).
func WriteRobustnessJSON(path string) (RobustnessReport, error) {
	rep, err := RobustnessReportRun()
	if err != nil {
		return rep, err
	}
	return rep, writeJSON(path, rep)
}

// Robustness renders the experiment as a benchtab table.
func Robustness() (Table, error) {
	rep, err := RobustnessReportRun()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Robustness",
		Title:  "Online scrub and salvage mount vs the CFS scavenger (full 300 MB volume)",
		Header: []string{"Stage", "Sectors", "Repaired/recovered", "Elapsed (s)", "Rate"},
		Rows: [][]string{
			{
				"scrub (1 copy of every dup page decayed)",
				fmt.Sprint(rep.ScrubSectors),
				fmt.Sprintf("%d copies + %d retired", rep.ScrubRepaired, rep.ScrubRetired),
				fmt.Sprintf("%.1f", rep.ScrubElapsedS),
				fmt.Sprintf("%.1f MB/s", rep.ScrubMBPerS),
			},
			{
				"salvage (both NT copies lost)",
				fmt.Sprint(rep.SalvageSectors),
				fmt.Sprintf("%d files", rep.SalvageFiles),
				fmt.Sprintf("%.1f", rep.SalvageElapsedS),
				"-",
			},
			{
				"CFS scavenge (same population)",
				"-",
				fmt.Sprintf("%d files", rep.ScavengeFiles),
				fmt.Sprintf("%.1f", rep.ScavengeS),
				"-",
			},
		},
		Notes: []string{
			fmt.Sprintf("%d files (~40 MB); %d sectors decayed (%d stuck defects remapped to spares)",
				rep.Files, rep.DecayedSectors, rep.StuckSectors),
			fmt.Sprintf("salvage is %.1fx faster than the label scavenge it replaces (paper: scavenge \"takes over an hour\")",
				rep.SalvageSpeedup),
		},
	}
	return t, nil
}
