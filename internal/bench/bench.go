// Package bench regenerates every table and measured claim of the paper's
// evaluation on full-size (300 MB) simulated volumes. Records is the one
// list of what it regenerates: each entry runs its experiment once, and
// cmd/benchtab prints the report's tables and writes the report as a
// BENCH_*.json at the repo root from that run.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/unixfs"
	"repro/internal/workload"
)

// Table is one reproduced table or measured claim.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Print writes the table in aligned plain text.
func (t Table) Print(out func(string, ...interface{})) {
	out("\n=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		out("%s\n", s)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		out("note: %s\n", n)
	}
}

// ms formats a duration in milliseconds with one decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// secs formats a duration in whole seconds.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.0f", d.Seconds())
}

// ratio formats a/b.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}

// fsdEnv is a fresh full-size FSD volume.
type fsdEnv struct {
	v   *core.Volume
	d   *disk.Disk
	clk *sim.VirtualClock
	t   workload.FSDTarget
}

// fsdBenchConfig is the paper design point with a name table sized for the
// populated recovery experiments.
func fsdBenchConfig() core.Config {
	// The data cache is disabled: the paper's FSD had no file-data buffer
	// cache, and the reproduced tables measure the raw per-run data path.
	// The DataPath bench enables it explicitly for the ablation.
	return core.Config{NTPages: 4096, DataCachePages: -1}
}

func newFSD(cfg core.Config) (fsdEnv, error) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		return fsdEnv{}, err
	}
	v, err := core.Format(d, cfg)
	if err != nil {
		return fsdEnv{}, err
	}
	return fsdEnv{v: v, d: d, clk: clk, t: workload.FSDTarget{V: v}}, nil
}

// cfsEnv is a fresh full-size CFS volume.
type cfsEnv struct {
	v   *cfs.Volume
	d   *disk.Disk
	clk *sim.VirtualClock
	t   workload.CFSTarget
}

func newCFS() (cfsEnv, error) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		return cfsEnv{}, err
	}
	v, err := cfs.Format(d, cfs.Config{NTPages: 4096})
	if err != nil {
		return cfsEnv{}, err
	}
	return cfsEnv{v: v, d: d, clk: clk, t: workload.CFSTarget{V: v}}, nil
}

// unixEnv is a fresh full-size BSD volume.
type unixEnv struct {
	fs  *unixfs.FS
	d   *disk.Disk
	clk *sim.VirtualClock
	t   workload.UnixTarget
}

func newUnix(cfg unixfs.Config) (unixEnv, error) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		return unixEnv{}, err
	}
	fs, err := unixfs.Format(d, cfg)
	if err != nil {
		return unixEnv{}, err
	}
	return unixEnv{fs: fs, d: d, clk: clk, t: workload.UnixTarget{FS: fs}}, nil
}

// meanOp runs fn n times and returns the mean virtual-clock duration.
func meanOp(clk *sim.VirtualClock, n int, fn func(i int) error) (time.Duration, error) {
	start := clk.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return (clk.Now() - start) / time.Duration(n), nil
}

// populate fills a target to "moderately full" (~60% of a 300 MB volume),
// capping file size so the population holds a realistic file count.
func populate(t workload.Target, seed int64) (int, error) {
	names, err := workload.PopulateVolume(t, rand.New(rand.NewSource(seed)), 170_000_000, 192*1024)
	return len(names), err
}
