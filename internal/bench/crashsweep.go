package bench

import (
	"fmt"

	"repro/internal/crashtest"
)

// The crash-state exploration experiment. internal/crashtest enumerates
// every barrier-consistent crash image of a scripted workload — prefix
// cuts, legal write reorderings within the open barrier epoch, and torn
// variants of multi-sector writes — then mounts each one and checks the
// durability oracle: acknowledged operations survive, unacknowledged ones
// are atomically present-or-absent, and no image fails to mount. This
// benchmark reports the sweep throughput (crash states verified per
// second) and the distribution of simulated recovery times across all
// those images, the systematic version of the paper's observed 1–25 s
// post-crash recovery window.

// recoveryClock is the clock line the crash-sweep reports carry.
const recoveryClock = "recovery_*_s: simulated seconds, the recovery mount's Elapsed on the virtual clock; *_per_sec and elapsed_wall_s: wall clock"

// CrashSweepReport is what BENCH_crashsweep.json holds. Recovery times are
// simulated (virtual-clock) values; StatesPerSec is wall clock.
type CrashSweepReport struct {
	Clock         string  `json:"clock"`
	Seed          int64   `json:"seed"`
	Ops           int     `json:"ops"`
	AckedOps      int     `json:"acked_ops"`
	Epochs        int     `json:"epochs"`
	StatesTotal   int     `json:"states_total"`
	States        int     `json:"states_executed"`
	PrefixStates  int     `json:"prefix_states"`
	ReorderStates int     `json:"reorder_states"`
	TornStates    int     `json:"torn_states"`
	MountFailures int     `json:"mount_failures"`
	Violations    int     `json:"violations"`
	TornRecords   int     `json:"torn_records"`
	TailDiscarded int     `json:"tail_discarded"`
	GapBreaks     int     `json:"gap_breaks"`
	StatesPerSec  float64 `json:"states_per_sec"`
	RecoveryMinS  float64 `json:"recovery_min_s"`
	RecoveryMedS  float64 `json:"recovery_median_s"`
	RecoveryMaxS  float64 `json:"recovery_max_s"`
	ElapsedS      float64 `json:"elapsed_wall_s"`
}

// CrashSweepReportRun runs the full enumeration for the default workload.
func CrashSweepReportRun() (CrashSweepReport, error) {
	var rep CrashSweepReport
	res, err := crashtest.Run(crashtest.Config{Seed: 1, StateID: -1})
	if err != nil {
		return rep, err
	}
	if res.MountFailures > 0 || len(res.Violations) > 0 {
		return rep, fmt.Errorf("crash sweep found real failures: %d mount failures, %d violations (seed %d)",
			res.MountFailures, len(res.Violations), res.Seed)
	}
	rmin, rmed, rmax := res.RecoverySummary()
	rep = CrashSweepReport{
		Clock:         recoveryClock,
		Seed:          res.Seed,
		Ops:           res.Ops,
		AckedOps:      res.AckedOps,
		Epochs:        res.Epochs,
		StatesTotal:   res.StatesTotal,
		States:        res.States,
		PrefixStates:  res.PrefixStates,
		ReorderStates: res.ReorderStates,
		TornStates:    res.TornStates,
		MountFailures: res.MountFailures,
		Violations:    len(res.Violations),
		TornRecords:   res.TornRecords,
		TailDiscarded: res.TailDiscarded,
		GapBreaks:     res.GapBreaks,
		RecoveryMinS:  rmin.Seconds(),
		RecoveryMedS:  rmed.Seconds(),
		RecoveryMaxS:  rmax.Seconds(),
		ElapsedS:      res.Elapsed.Seconds(),
	}
	if res.Elapsed > 0 {
		rep.StatesPerSec = float64(res.States) / res.Elapsed.Seconds()
	}
	return rep, nil
}

// CrashSweep renders the exploration as a table.
func CrashSweep() (Table, error) {
	rep, err := CrashSweepReportRun()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Crash sweep",
		Title:  "Systematic crash-state exploration with the durability oracle",
		Header: []string{"Metric", "Value"},
		Rows: [][]string{
			{"workload", fmt.Sprintf("seed %d, %d ops (%d acked), %d barrier epochs", rep.Seed, rep.Ops, rep.AckedOps, rep.Epochs)},
			{"crash states verified", fmt.Sprintf("%d (%d prefix, %d reorder, %d torn)", rep.States, rep.PrefixStates, rep.ReorderStates, rep.TornStates)},
			{"oracle verdict", fmt.Sprintf("%d mount failures, %d violations", rep.MountFailures, rep.Violations)},
			{"recovery damage absorbed", fmt.Sprintf("%d torn records, %d tail records discarded, %d gap breaks", rep.TornRecords, rep.TailDiscarded, rep.GapBreaks)},
			{"sweep throughput", fmt.Sprintf("%.0f states/sec wall clock", rep.StatesPerSec)},
			{"simulated recovery time", fmt.Sprintf("min %.2f s, median %.2f s, max %.2f s", rep.RecoveryMinS, rep.RecoveryMedS, rep.RecoveryMaxS)},
		},
		Notes: []string{
			"every crash image mounts and satisfies the durability oracle",
			fmt.Sprintf("recovery stays inside the paper's observed 1-25 s window (max %.2f s)", rep.RecoveryMaxS),
		},
	}
	return t, nil
}

// WriteCrashSweepJSON runs the sweep and records it at path
// (BENCH_crashsweep.json at the repo root).
func WriteCrashSweepJSON(path string) (CrashSweepReport, error) {
	rep, err := CrashSweepReportRun()
	if err != nil {
		return rep, err
	}
	return rep, writeJSON(path, rep)
}
