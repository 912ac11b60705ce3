package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vam"
	"repro/internal/wal"
)

// setRetiredVAMFlag sets root byte 65 — the retired VAM-logging flag an older
// build wrote on a volume that logged its allocation map — in both root
// copies, and re-stamps their checksums.
func setRetiredVAMFlag(t *testing.T, d *disk.Disk) {
	t.Helper()
	for _, addr := range []int{0, 2} {
		buf, err := d.ReadSectors(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf[65] = 1
		restamp(buf, censorOff)
		if err := d.WriteSectors(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetiredVAMLoggingVolumeMounts mounts what an older build that logged
// the allocation map leaves behind: a root carrying the retired flag, and a
// log holding a kind-3 image (an allocation-map sector). A crash mount
// replays past the image, writes nothing of it, rebuilds the map by the
// name-table scan and leaves a volume Verify finds clean; a clean mount of a
// flagged root loads the saved map.
func TestRetiredVAMLoggingVolumeMounts(t *testing.T) {
	newVolumeWithFiles := func(t *testing.T) (*disk.Disk, *Volume) {
		d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
		if err != nil {
			t.Fatal(err)
		}
		v, err := Format(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := v.Create(fmt.Sprintf("old/f%02d", i), payload(900*i, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		return d, v
	}
	verifyClean := func(t *testing.T, v *Volume) {
		t.Helper()
		if st, err := v.Verify(); err != nil || len(st.Problems) != 0 {
			t.Fatalf("Verify: %v, problems %v", err, st.Problems)
		}
	}

	t.Run("crash", func(t *testing.T) {
		d, v := newVolumeWithFiles(t)
		lay := v.lay
		saveArea, err := d.ReadSectors(lay.vamBase+1, lay.vamSectors-1)
		if err != nil {
			t.Fatal(err)
		}
		// A bitmap sector of all ones would mark every page it covers free.
		img := bytes.Repeat([]byte{0xFF}, disk.SectorSize)
		if _, err := v.log.Append(wal.PageImage{Kind: 3, Target: 0, Data: img}); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		v.Crash()
		d.Revive()
		setRetiredVAMFlag(t, d)

		v, ms, err := Mount(d, testConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		defer v.Crash()
		if ms.CleanShutdown || !ms.VAMReconstructed {
			t.Errorf("crash mount: clean %v, reconstructed %v; want a rebuilt map", ms.CleanShutdown, ms.VAMReconstructed)
		}
		if ms.LogImagesApplied == 0 {
			t.Error("the crash mount replayed no images")
		}
		after, err := d.ReadSectors(lay.vamBase+1, lay.vamSectors-1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, saveArea) {
			t.Error("the crash mount wrote the kind-3 image into the allocation-map save area")
		}
		verifyClean(t, v)
	})

	t.Run("clean", func(t *testing.T) {
		d, v := newVolumeWithFiles(t)
		lay := v.lay
		shutdown(t, v)
		saved, err := vam.Load(d.ReadSectorsInto, lay.vamBase, lay.total)
		if err != nil {
			t.Fatalf("no saved map after Shutdown: %v", err)
		}
		setRetiredVAMFlag(t, d)

		v, ms, err := Mount(d, testConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		defer v.Crash()
		if !ms.CleanShutdown || ms.VAMReconstructed {
			t.Errorf("clean mount: clean %v, reconstructed %v; want the saved map loaded", ms.CleanShutdown, ms.VAMReconstructed)
		}
		if !bytes.Equal(vamBitmap(v.vm), vamBitmap(saved)) {
			t.Error("the mounted map differs from the saved one")
		}
		verifyClean(t, v)
	})
}
