package core

import (
	"testing"

	"repro/internal/disk"
)

// decayRoots formats a volume, populates it, and corrupts both root copies
// while it is mounted.
func decayRoots(t *testing.T) (*Volume, *disk.Disk) {
	t.Helper()
	v, d, _ := newTestVolumeWith(t, testConfig())
	populate(t, v, 10)
	d.CorruptSectors(v.lay.rootA, 1)
	d.CorruptSectors(v.lay.rootB, 1)
	return v, d
}

// TestShutdownOverDecayedRoots: the volume keeps the root page it wrote, so
// a shutdown stamps it clean without reading the decayed pair, and the next
// mount finds a clean volume.
func TestShutdownOverDecayedRoots(t *testing.T) {
	v, d := decayRoots(t)
	if err := v.Shutdown(); err != nil {
		t.Fatalf("Shutdown over two decayed roots: %v", err)
	}
	w, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("mount after the shutdown: %v", err)
	}
	if !ms.CleanShutdown {
		t.Fatal("mount after the shutdown found the volume unclean")
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRewritesLostRootPair: a scrub that reads neither root copy
// rewrites both from the root the volume wrote, so a crash mount still finds
// its layout.
func TestScrubRewritesLostRootPair(t *testing.T) {
	v, d := decayRoots(t)
	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.RootsRepaired != 2 || len(st.Problems) != 0 {
		t.Fatalf("scrub over two decayed roots: %d repaired, problems %q; want 2 and none", st.RootsRepaired, st.Problems)
	}
	v.Crash()
	d.Revive()
	w, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("crash mount after the scrub: %v", err)
	}
	if ms.CleanShutdown {
		t.Fatal("crash mount found the volume clean")
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubReadsAnchorOnce: the log audit walks from the anchor its pair
// check read, so one scrub reads the anchor's primary copy once.
func TestScrubReadsAnchorOnce(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	populate(t, v, 10)
	anchor := v.lay.logBase
	reads := 0
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if !e.Write && e.Addr <= anchor && anchor < e.Addr+e.Sectors {
			reads++
		}
	})
	defer d.SetOpObserver(v.observeDiskOp)
	if _, err := v.Scrub(); err != nil {
		t.Fatal(err)
	}
	if reads != 1 {
		t.Fatalf("one scrub read the anchor sector %d times, want 1", reads)
	}
}

// TestCleanMountRetriesSavedMap: a clean mount loads the saved allocation map
// through the volume's retried read, so a transient fault there is retried
// and counted, not taken for an unsaved map and rebuilt by the full scan.
// Under seed 2 the fault pattern fails a read of the save area.
func TestCleanMountRetriesSavedMap(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	populate(t, v, 30)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(disk.FaultConfig{Seed: 2, TransientRead: 0.02})
	w, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Crash()
	if !ms.CleanShutdown || ms.VAMReconstructed {
		t.Fatalf("clean mount: CleanShutdown %v, VAMReconstructed %v; want the saved map loaded", ms.CleanShutdown, ms.VAMReconstructed)
	}
	if f := w.Stats().Faults; f.ReadRetries == 0 || f.RetriedOK == 0 {
		t.Fatalf("the save area's transient fault went uncounted: %+v", f)
	}
}
