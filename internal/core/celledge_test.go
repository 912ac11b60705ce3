package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/disk"
)

// TestEntryAtCellLimitTakesScalarUpdates: a cached file whose run table has
// grown until one more run would not fit a name-table cell still takes every
// update that changes only its scalar fields — a write past the end within
// its pages, SetByteSize, SetKeep, Touch and, on an asynchronous volume, the
// last-used refresh its open hands the applier — with no error and no
// read-only demotion, however far those updates lengthen the fields'
// varints. entryFits counts those fields at their widest, so the run that
// would have left them no room is refused instead.
func TestEntryAtCellLimitTakesScalarUpdates(t *testing.T) {
	v, _, clk := newTestVolumeWith(t, asyncConfig())
	// Both files start above the small-file cutoff, so each one-page
	// Extend takes the first free page past the file's end: the two
	// alternate, and every Extend of either adds a run. The longer name
	// fills its cell first.
	name := "edge/" + strings.Repeat("x", 60)
	f, err := v.CreateCached(name, payload(16*disk.SectorSize, 1))
	if err != nil {
		t.Fatal(err)
	}
	spacer, err := v.Create("spacer", payload(16*disk.SectorSize, 2))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if len(f.e.Runs) > 1000 {
			t.Fatalf("%d runs and the run table still fits", len(f.e.Runs))
		}
		if err := spacer.Extend(1); err != nil {
			t.Fatal(err)
		}
		err := f.Extend(1)
		if errors.Is(err, btree.ErrTooLarge) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(f.e.Runs) < 64 {
		t.Fatalf("the run table filled a cell at %d runs; the spacer did not fragment it", len(f.e.Runs))
	}
	t.Logf("the run table fills its cell at %d runs", len(f.e.Runs))
	pages := f.Pages()
	// Every scalar at its narrowest so far: each update below widens one.
	if e := f.e; e.Keep != 0 || e.LastUsed != e.CreateTime || uvarintLen(e.ByteSize) >= uvarintLen(uint64(pages*disk.SectorSize)) {
		t.Fatalf("edge starts with keep %d, last used %v after creation, %d bytes of %d pages",
			e.Keep, e.LastUsed-e.CreateTime, e.ByteSize, pages)
	}

	if _, err := f.WriteAt(payload(disk.SectorSize, 2), int64(pages-1)*disk.SectorSize); err != nil {
		t.Fatalf("write past the end within the pages: %v", err)
	}
	if err := f.SetByteSize(uint64(pages*disk.SectorSize) - 1); err != nil {
		t.Fatalf("SetByteSize: %v", err)
	}
	if err := v.SetKeep(name, 0xFFFF); err != nil {
		t.Fatalf("SetKeep: %v", err)
	}
	clk.Advance(1000 * time.Hour)
	if err := v.Touch(name, 0); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	clk.Advance(1000 * time.Hour)
	opened := clk.Now()
	if _, err := v.Open(name, 0); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := v.DrainIntents(); err != nil {
		t.Fatalf("DrainIntents: %v", err)
	}
	if h := v.Health(); h != HealthHealthy {
		t.Fatalf("volume went %v: %s", h, v.HealthReason())
	}
	e, err := v.Stat(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Keep != 0xFFFF || e.ByteSize != uint64(pages*disk.SectorSize)-1 || e.LastUsed < opened {
		t.Fatalf("edge ends with keep %d, %d bytes, last used at %v (opened at %v)", e.Keep, e.ByteSize, e.LastUsed, opened)
	}
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify: %v %v", err, vs.Problems)
	}
}
