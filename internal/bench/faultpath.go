package bench

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/workload"
)

// The write-fault-path sweep. PR 7's robustness work puts bounded retries,
// automatic spare-sector remapping, and a hung-I/O deadline on every write
// site; this benchmark measures what that tolerance costs. A fixed
// create-heavy workload runs against seeded write faults at increasing
// rates — transient errors at the headline rate, bad-on-write sectors at a
// tenth of it — with and without a composed hung-I/O probability, and the
// report records throughput next to the retry/remap/hung counters and the
// final health verdict. The zero-rate cell is the control: its throughput
// is the no-fault baseline the overhead column is computed against.

// FaultPathResult is one cell of the sweep.
type FaultPathResult struct {
	Mode         string  `json:"mode"`
	TransientPct float64 `json:"transient_pct"` // headline write-fault rate, percent
	HungIO       bool    `json:"hung_io"`
	Ops          int     `json:"ops"`
	ElapsedMS    float64 `json:"elapsed_ms"` // simulated: device time plus CPU charges
	Throughput   float64 `json:"throughput_ops_per_sec"`
	WriteRetries int     `json:"write_retries"`
	WriteRemaps  int     `json:"write_remaps"`
	HungOps      int     `json:"hung_ops"`
	ErrorBudget  int     `json:"error_budget"`
	Health       string  `json:"health"`
	SlowdownX    float64 `json:"slowdown_x"` // elapsed vs the zero-rate control
}

// FaultPathReport is what BENCH_faultpath.json holds.
type FaultPathReport struct {
	Clock string            `json:"clock"`
	Model string            `json:"model"`
	Cells []FaultPathResult `json:"cells"`
}

// faultPathOps is creates per cell; every file is committed by the periodic
// forces so each op exercises log, leader, and data writes.
const faultPathOps = 240

func faultPathRun(mode string, rate float64, hung bool) (FaultPathResult, error) {
	cfg := fsdBenchConfig()
	// Generous budget: the sweep measures absorption cost, not the FSM
	// thresholds (those are pinned by the core tests), so the volume
	// should stay writable through the 1% cell.
	cfg.ErrorBudget = 1 << 20
	fe, err := newFSD(cfg)
	if err != nil {
		return FaultPathResult{}, err
	}
	fc := disk.FaultConfig{
		Seed:           42,
		TransientWrite: rate,
		BadOnWrite:     rate / 10,
	}
	if hung {
		// Rare but expensive: each hit stalls past the 1 s op deadline.
		fc.HungIO = 0.003
		fc.HungIODelay = 1500 * time.Millisecond
	}
	if rate > 0 || hung {
		fe.d.InjectFaults(fc)
	}
	fe.d.ResetStats()
	start := fe.clk.Now()
	data := workload.Payload(2048, 11)
	for i := 0; i < faultPathOps; i++ {
		if _, err := fe.v.Create(fmt.Sprintf("fp/f%04d", i), data); err != nil {
			return FaultPathResult{}, fmt.Errorf("create %d (health %v): %w",
				i, fe.v.Health(), err)
		}
		if i%20 == 19 {
			if err := fe.v.Force(); err != nil {
				return FaultPathResult{}, fmt.Errorf("force at %d: %w", i, err)
			}
		}
	}
	if err := fe.v.Force(); err != nil {
		return FaultPathResult{}, err
	}
	elapsed := fe.clk.Now() - start
	st := fe.v.Stats()
	fe.d.ClearFaults()
	if err := fe.v.Shutdown(); err != nil {
		return FaultPathResult{}, err
	}
	return FaultPathResult{
		Mode:         mode,
		TransientPct: rate * 100,
		HungIO:       hung,
		Ops:          faultPathOps,
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		Throughput:   float64(faultPathOps) / elapsed.Seconds(),
		WriteRetries: st.Faults.WriteRetries,
		WriteRemaps:  st.Faults.WriteRemaps,
		HungOps:      st.Faults.HungOps,
		ErrorBudget:  st.Faults.ErrorBudget,
		Health:       st.Health.String(),
	}, nil
}

// FaultPathReportRun runs the rate x hung-I/O grid.
func FaultPathReportRun() (FaultPathReport, error) {
	rep := FaultPathReport{
		Clock: "elapsed_ms and throughput_ops_per_sec: simulated, the virtual clock over " +
			"the run (device time plus CPU charges); everything else: counts and ratios of counts",
		Model: "seeded injector: transient write errors at the headline rate, " +
			"bad-on-write at rate/10, hung ops stall 1.5s against the 1s deadline",
	}
	cells := []struct {
		mode string
		rate float64
		hung bool
	}{
		{"clean", 0, false},
		{"0.1%", 0.001, false},
		{"1%", 0.01, false},
		{"clean+hung", 0, true},
		{"0.1%+hung", 0.001, true},
		{"1%+hung", 0.01, true},
	}
	var control float64
	for _, c := range cells {
		r, err := faultPathRun(c.mode, c.rate, c.hung)
		if err != nil {
			return FaultPathReport{}, fmt.Errorf("%s: %w", c.mode, err)
		}
		if c.mode == "clean" {
			control = r.ElapsedMS
		}
		if control > 0 {
			r.SlowdownX = r.ElapsedMS / control
		}
		rep.Cells = append(rep.Cells, r)
	}
	return rep, nil
}

// WriteFaultPathJSON runs the sweep and records it at path
// (BENCH_faultpath.json at the repo root).
func WriteFaultPathJSON(path string) (FaultPathReport, error) {
	rep, err := FaultPathReportRun()
	if err != nil {
		return rep, err
	}
	return rep, writeJSON(path, rep)
}

// FaultPath renders the sweep as a benchtab table.
func FaultPath() (Table, error) {
	rep, err := FaultPathReportRun()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "FaultPath",
		Title: "Write-fault absorption cost (bounded retries + spare remap + hung-I/O deadline)",
		Header: []string{"Faults", "Ops", "Elapsed (ms)", "Ops/s", "Retries",
			"Remaps", "Hung", "Budget", "Health", "Slowdown"},
	}
	for _, r := range rep.Cells {
		t.Rows = append(t.Rows, []string{
			r.Mode, fmt.Sprint(r.Ops), fmt.Sprintf("%.0f", r.ElapsedMS),
			fmt.Sprintf("%.0f", r.Throughput), fmt.Sprint(r.WriteRetries),
			fmt.Sprint(r.WriteRemaps), fmt.Sprint(r.HungOps),
			fmt.Sprint(r.ErrorBudget), r.Health, fmt.Sprintf("%.2fx", r.SlowdownX),
		})
	}
	t.Notes = append(t.Notes,
		"workload: 240 committed 2 KB creates; error budget raised so the FSM never demotes mid-sweep",
		rep.Model,
	)
	return t, nil
}
