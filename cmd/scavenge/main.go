// Scavenge demonstrates the recovery-path difference at the heart of the
// paper on freshly built volumes: it populates an FSD volume and a CFS
// volume identically, crashes both, and recovers each with its own
// mechanism — FSD's log replay (seconds) versus CFS's full-disk scavenge
// (an hour of simulated time).
//
// Usage:
//
//	scavenge [-files n] [-mb m]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	mb := flag.Int("mb", 60, "megabytes of files to populate before the crash")
	flag.Parse()
	if err := run(os.Stdout, int64(*mb)<<20); err != nil {
		fmt.Fprintf(os.Stderr, "scavenge: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, bytes int64) error {
	// FSD side.
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		return err
	}
	fv, err := core.Format(d, core.Config{NTPages: 4096})
	if err != nil {
		return err
	}
	names, err := workload.PopulateVolume(workload.FSDTarget{V: fv}, rand.New(rand.NewSource(1)), bytes, 192*1024)
	if err != nil {
		return err
	}
	fv.Force()
	fmt.Fprintf(w, "populated FSD volume with %d files (%d MB), crashing...\n", len(names), bytes>>20)
	fv.Crash()
	d.Revive()
	_, ms, err := core.Mount(d, core.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "FSD recovery: %.1f s simulated (%d log records replayed, VAM rebuilt in %.1f s)\n",
		ms.Elapsed.Seconds(), ms.LogRecords, ms.VAMElapsed.Seconds())

	// CFS side.
	clk2 := sim.NewVirtualClock()
	d2, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk2)
	if err != nil {
		return err
	}
	cv, err := cfs.Format(d2, cfs.Config{NTPages: 4096})
	if err != nil {
		return err
	}
	if _, err := workload.PopulateVolume(workload.CFSTarget{V: cv}, rand.New(rand.NewSource(1)), bytes, 192*1024); err != nil {
		return err
	}
	fmt.Fprintln(w, "populated CFS volume identically, crashing...")
	cv.Crash()
	d2.Revive()
	if _, err := cfs.Mount(d2, cfs.Config{}); err != cfs.ErrNeedScavenge {
		return fmt.Errorf("expected scavenge requirement, got %v", err)
	}
	_, st, err := cfs.Scavenge(d2, cfs.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CFS scavenge: %.0f s simulated (%d sectors scanned, %d files recovered)\n",
		st.Elapsed.Seconds(), st.SectorsScanned, st.FilesRecovered)
	fmt.Fprintf(w, "\nspeedup: %.0fx — \"users do not like their machines being unavailable for an hour or more\"\n",
		st.Elapsed.Seconds()/ms.Elapsed.Seconds())
	return nil
}
