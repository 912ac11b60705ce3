package bench

import (
	"fmt"

	"repro/internal/crashtest"
)

// The nested-crash (depth-2) exploration experiment. For a bounded, seeded
// sample of outer crash images, the recovery mount itself runs under a
// write-back window and is crashed again at sampled barrier epochs; every
// resulting image is recovered once more. The durability oracle must hold
// across the double crash — acknowledged operations survive, unacknowledged
// ones stay atomic, every state mounts — and the second recovery must
// reproduce the first one's decisions exactly (replay idempotence made
// observable). The report carries the recovery-of-recovery latency
// distribution alongside the state counts.

// NestedCrashReport is what BENCH_nestedcrash.json holds. Recovery times are
// simulated (virtual-clock) values; StatesPerSec is wall clock and counts
// inner mounts.
type NestedCrashReport struct {
	Clock            string  `json:"clock"`
	Seed             int64   `json:"seed"`
	Depth            int     `json:"depth"`
	Ops              int     `json:"ops"`
	AckedOps         int     `json:"acked_ops"`
	Epochs           int     `json:"epochs"`
	OuterStatesTotal int     `json:"outer_states_total"`
	OuterStates      int     `json:"outer_states_explored"`
	InnerStatesTotal int     `json:"inner_states_total"`
	InnerStates      int     `json:"inner_states_explored"`
	MountFailures    int     `json:"outer_mount_failures"`
	InnerMountFails  int     `json:"inner_mount_failures"`
	Violations       int     `json:"depth2_violations"`
	TornRecords      int     `json:"torn_records"`
	TailDiscarded    int     `json:"tail_discarded"`
	GapBreaks        int     `json:"gap_breaks"`
	StatesPerSec     float64 `json:"inner_states_per_sec"`
	RecoveryMinS     float64 `json:"recovery_min_s"`
	RecoveryMedS     float64 `json:"recovery_median_s"`
	RecoveryMaxS     float64 `json:"recovery_max_s"`
	RecRecMinS       float64 `json:"recovery_of_recovery_min_s"`
	RecRecMedS       float64 `json:"recovery_of_recovery_median_s"`
	RecRecMaxS       float64 `json:"recovery_of_recovery_max_s"`
	ElapsedS         float64 `json:"elapsed_wall_s"`
}

// NestedCrashReportRun runs the depth-2 exploration over a bounded outer
// sample. outerStates bounds the outer images explored (0 means the
// acceptance default of 300); every outer image gets the default inner
// sample per barrier epoch of its recovery.
func NestedCrashReportRun(outerStates int) (NestedCrashReport, error) {
	var rep NestedCrashReport
	if outerStates == 0 {
		outerStates = 300
	}
	res, err := crashtest.Run(crashtest.Config{
		Seed:      1,
		StateID:   -1,
		MaxStates: outerStates,
		Nested:    true,
	})
	if err != nil {
		return rep, err
	}
	if res.MountFailures > 0 || res.InnerMountFailures > 0 || len(res.Violations) > 0 {
		return rep, fmt.Errorf("nested crash sweep found real failures: %d/%d mount failures, %d violations (seed %d)",
			res.MountFailures, res.InnerMountFailures, len(res.Violations), res.Seed)
	}
	rmin, rmed, rmax := res.RecoverySummary()
	nmin, nmed, nmax := res.RecoveryOfRecoverySummary()
	rep = NestedCrashReport{
		Clock:            recoveryClock,
		Seed:             res.Seed,
		Depth:            2,
		Ops:              res.Ops,
		AckedOps:         res.AckedOps,
		Epochs:           res.Epochs,
		OuterStatesTotal: res.StatesTotal,
		OuterStates:      res.States,
		InnerStatesTotal: res.InnerStatesTotal,
		InnerStates:      res.InnerStates,
		MountFailures:    res.MountFailures,
		InnerMountFails:  res.InnerMountFailures,
		Violations:       len(res.Violations),
		TornRecords:      res.TornRecords,
		TailDiscarded:    res.TailDiscarded,
		GapBreaks:        res.GapBreaks,
		RecoveryMinS:     rmin.Seconds(),
		RecoveryMedS:     rmed.Seconds(),
		RecoveryMaxS:     rmax.Seconds(),
		RecRecMinS:       nmin.Seconds(),
		RecRecMedS:       nmed.Seconds(),
		RecRecMaxS:       nmax.Seconds(),
		ElapsedS:         res.Elapsed.Seconds(),
	}
	if res.Elapsed > 0 {
		rep.StatesPerSec = float64(res.InnerStates) / res.Elapsed.Seconds()
	}
	return rep, nil
}

// NestedCrash renders the depth-2 exploration as a table.
func NestedCrash() (Table, error) {
	rep, err := NestedCrashReportRun(0)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Nested crash",
		Title:  "Depth-2 crash exploration: recovery crashed and recovered again",
		Header: []string{"Metric", "Value"},
		Rows: [][]string{
			{"workload", fmt.Sprintf("seed %d, %d ops (%d acked), %d barrier epochs", rep.Seed, rep.Ops, rep.AckedOps, rep.Epochs)},
			{"outer crash states", fmt.Sprintf("%d explored of %d enumerated", rep.OuterStates, rep.OuterStatesTotal)},
			{"inner (depth-2) states", fmt.Sprintf("%d explored of %d enumerated", rep.InnerStates, rep.InnerStatesTotal)},
			{"oracle verdict", fmt.Sprintf("%d outer + %d inner mount failures, %d depth-2 violations", rep.MountFailures, rep.InnerMountFails, rep.Violations)},
			{"recovery damage absorbed", fmt.Sprintf("%d torn records, %d tail records discarded, %d gap breaks", rep.TornRecords, rep.TailDiscarded, rep.GapBreaks)},
			{"sweep throughput", fmt.Sprintf("%.0f inner states/sec wall clock", rep.StatesPerSec)},
			{"first recovery time", fmt.Sprintf("min %.2f s, median %.2f s, max %.2f s", rep.RecoveryMinS, rep.RecoveryMedS, rep.RecoveryMaxS)},
			{"recovery-of-recovery time", fmt.Sprintf("min %.2f s, median %.2f s, max %.2f s", rep.RecRecMinS, rep.RecRecMedS, rep.RecRecMaxS)},
		},
		Notes: []string{
			"every depth-2 image mounts; acked ops survive the double crash; the second recovery reproduces the first one's decisions",
			fmt.Sprintf("recovery-of-recovery stays inside the paper's observed 1-25 s window (max %.2f s)", rep.RecRecMaxS),
		},
	}
	return t, nil
}

// WriteNestedCrashJSON runs the depth-2 sweep and records it at path
// (BENCH_nestedcrash.json at the repo root).
func WriteNestedCrashJSON(path string) (NestedCrashReport, error) {
	rep, err := NestedCrashReportRun(0)
	if err != nil {
		return rep, err
	}
	return rep, writeJSON(path, rep)
}
