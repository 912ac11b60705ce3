package cfs

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vam"
)

// TestCreatePlacementIsZeroValueRule: CFS shares FSD's allocator but not the
// rule that fills FSD's small-file area from the central metadata down. After
// Table 3's create workload (100 files of 500 bytes on a full-size volume)
// every file's header and data runs are where the allocator's zero-value rule
// puts them — one first-fit area filled upward from the front.
func TestCreatePlacementIsZeroValueRule(t *testing.T) {
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(d, Config{NTPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if v.al.Config().SmallFromBoundary {
		t.Fatal("CFS allocator fills from a boundary")
	}
	const n, size = 100, 500
	var got []Entry
	for i := 0; i < n; i++ {
		f, err := v.Create(fmt.Sprintf("dir/f%04d", i), payload(size, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Entry())
	}

	ref := vam.New(v.lay.total)
	ref.MarkFree(v.lay.dataLo, v.lay.total-v.lay.dataLo)
	al, err := alloc.New(ref, alloc.Config{
		Lo: v.lay.dataLo, Hi: v.lay.total,
		SmallThreshold: 1 << 30, SmallFraction: 50, MaxRuns: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		runs, err := al.Alloc(2 + (size+disk.SectorSize-1)/disk.SectorSize)
		if err != nil {
			t.Fatal(err)
		}
		if e.HeaderAddr != int(runs[0].Start) || !reflect.DeepEqual(e.Runs, splitDataRuns(runs)) {
			t.Fatalf("file %d: header %d, runs %v; the zero-value rule gives header %d, runs %v",
				i, e.HeaderAddr, e.Runs, runs[0].Start, splitDataRuns(runs))
		}
	}
}
