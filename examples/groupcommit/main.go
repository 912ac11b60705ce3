// Groupcommit sweeps the group-commit interval over the bulk-update
// workload and shows where the paper's 2.98x metadata I/O reduction comes
// from: hot name-table pages absorb repeated updates, and one log write
// amortizes across everything that happened in the window.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	fmt.Println("bulk-update workload (Schmidt-style subdirectory bringover):")
	fmt.Printf("%d files x %d rounds of property updates + re-creates\n\n",
		workload.DefaultBulkUpdate.Files, workload.DefaultBulkUpdate.Rounds)
	fmt.Printf("%-10s  %9s  %9s  %7s  %8s  %8s\n",
		"interval", "meta I/Os", "total I/O", "forces", "staged", "elided")

	var syncMeta, syncTotal int
	for _, iv := range []time.Duration{-1, 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		clk := sim.NewVirtualClock()
		d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.Config{NTPages: 4096, GroupCommitInterval: iv}
		label := iv.String()
		if iv < 0 {
			label = "sync"
		}
		v, err := core.Format(d, cfg)
		if err != nil {
			log.Fatal(err)
		}
		t := workload.FSDTarget{V: v}
		if err := workload.BulkUpdatePrepare(t, workload.DefaultBulkUpdate); err != nil {
			log.Fatal(err)
		}
		v.Force()
		d.ResetStats()
		v.Log().ResetStats()
		if err := workload.BulkUpdateRun(t, workload.DefaultBulkUpdate); err != nil {
			log.Fatal(err)
		}
		v.Force()
		ds := d.Stats()
		ls := v.Log().Stats()
		meta := ds.OpsByClass[disk.ClassMeta]
		if iv < 0 {
			syncMeta, syncTotal = meta, ds.Ops
		}
		fmt.Printf("%-10s  %9d  %9d  %7d  %8d  %8d\n",
			label, meta, ds.Ops, ls.Forces, ls.ImagesStaged, ls.ImagesElided)
	}

	fmt.Println()
	fmt.Printf("paper: group commit reduced metadata I/Os by 2.98x and total by 2.34x during bulk operations\n")
	fmt.Printf("(our sync baseline above: %d metadata / %d total)\n", syncMeta, syncTotal)
	fmt.Println("\nthe price: updates inside the window are not yet durable —")
	fmt.Println("\"loss of up to a half a second is not significant since it is")
	fmt.Println("regained in increased performance of a few seconds of normal operations\"")
}
