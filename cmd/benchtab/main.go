// Benchtab regenerates every table and measured claim of the paper's
// evaluation on full-size simulated volumes and prints a paper-vs-measured
// comparison.
//
// Usage:
//
//	benchtab                 # all tables
//	benchtab -table 2        # just Table 2
//	benchtab -table gc       # the group-commit statistics (5.4)
//	benchtab -table model    # the analytical-model validation (6)
//	benchtab -table recovery # recovery comparison (7)
//	benchtab -table ablations
//	benchtab -table 2 -tables-json BENCH_tables.json # also record hw, 1-5, gc, model, recovery
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: hw, 1-5, gc, model, recovery, robustness, crashsweep, nestedcrash, pfsck, datapath, faultpath, ablations, all")
	dataJSON := flag.String("datapath-json", "", "also write the data-path cache report to this path (e.g. BENCH_datapath.json)")
	tablesJSON := flag.String("tables-json", "", "also write the paper's tables (hw, 1-5, gc, model, recovery) to this path (e.g. BENCH_tables.json)")
	robJSON := flag.String("robustness-json", "", "also write the robustness report to this path (e.g. BENCH_robustness.json)")
	sweepJSON := flag.String("crashsweep-json", "", "also write the crash-sweep report to this path (e.g. BENCH_crashsweep.json)")
	nestedJSON := flag.String("nestedcrash-json", "", "also write the depth-2 nested-crash report to this path (e.g. BENCH_nestedcrash.json)")
	faultJSON := flag.String("faultpath-json", "", "also write the write-fault-path report to this path (e.g. BENCH_faultpath.json)")
	pfsckJSON := flag.String("pfsck-json", "", "also write the parallel check & repair report to this path (e.g. BENCH_pfsck.json)")
	flag.Parse()

	type gen struct {
		name string
		fn   func() (bench.Table, error)
	}
	// The paper's own tables come first; -tables-json records them.
	paper := []gen{
		{"hw", bench.Hardware},
		{"1", bench.Table1},
		{"2", bench.Table2},
		{"3", bench.Table3},
		{"4", bench.Table4},
		{"5", bench.Table5},
		{"gc", bench.GroupCommit},
		{"model", bench.ModelValidation},
		{"recovery", bench.Recovery},
		{"recovery", bench.RecoveryScaling},
	}
	extra := []gen{
		{"faultpath", bench.FaultPath},
		{"robustness", bench.Robustness},
		{"crashsweep", bench.CrashSweep},
		{"nestedcrash", bench.NestedCrash},
		{"pfsck", bench.PFsck},
		{"datapath", bench.DataPath},
	}
	ablations := []gen{
		{"ablations", bench.AblationCommitInterval},
		{"ablations", bench.AblationThirds},
		{"ablations", bench.AblationDoubleWrite},
		{"ablations", bench.AblationPlacement},
		{"ablations", bench.AblationAllocator},
		{"ablations", bench.AblationVAMLogging},
		{"ablations", bench.AblationLogSize},
	}

	run := func(g gen) bench.Table {
		t, err := g.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", g.name, err)
			os.Exit(1)
		}
		return t
	}
	want := strings.ToLower(*table)
	ran := 0
	out := func(format string, args ...interface{}) { fmt.Printf(format, args...) }
	for _, g := range slices.Concat(paper, extra, ablations) {
		if want != "all" && want != g.name {
			continue
		}
		run(g).Print(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: unknown table %q\n", *table)
		os.Exit(2)
	}
	if *tablesJSON != "" {
		tabs := make([]bench.Table, len(paper))
		for i, g := range paper {
			tabs[i] = run(g)
		}
		if err := bench.WriteTablesJSON(*tablesJSON, tabs); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: tables json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d paper tables)\n", *tablesJSON, len(tabs))
	}
	if *dataJSON != "" {
		rep, err := bench.WriteDataPathJSON(*dataJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: datapath json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (sequential read reduction %.1fx, re-read hit rate %.0f%%)\n",
			*dataJSON, rep.SeqReadReduction, rep.RereadHitRate*100)
	}
	if *robJSON != "" {
		rep, err := bench.WriteRobustnessJSON(*robJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: robustness json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (salvage %.1fx faster than scavenge)\n", *robJSON, rep.SalvageSpeedup)
	}
	if *sweepJSON != "" {
		rep, err := bench.WriteCrashSweepJSON(*sweepJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: crashsweep json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d states, %.0f states/sec, max recovery %.2f s)\n",
			*sweepJSON, rep.States, rep.StatesPerSec, rep.RecoveryMaxS)
	}
	if *nestedJSON != "" {
		rep, err := bench.WriteNestedCrashJSON(*nestedJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: nestedcrash json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d outer / %d inner states, %d depth-2 violations, max recovery-of-recovery %.2f s)\n",
			*nestedJSON, rep.OuterStates, rep.InnerStates, rep.Violations, rep.RecRecMaxS)
	}
	if *pfsckJSON != "" {
		rep, err := bench.WritePFsckJSON(*pfsckJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: pfsck json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (8-worker verify %.2fx, salvage sweep %.2fx)\n",
			*pfsckJSON, rep.VerifySpeedup8, rep.SalvageSpeedup8)
	}
	if *faultJSON != "" {
		rep, err := bench.WriteFaultPathJSON(*faultJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: faultpath json: %v\n", err)
			os.Exit(1)
		}
		worst := rep.Cells[len(rep.Cells)-1]
		fmt.Printf("\nwrote %s (worst cell %s: %.2fx slowdown, health %s)\n",
			*faultJSON, worst.Mode, worst.SlowdownX, worst.Health)
	}
}
