package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestCrashPointSweep injects a device halt after every k-th disk write
// during a mixed metadata workload, recovers, and verifies the paper's
// central guarantee at every crash point: the name table is structurally
// intact (no scavenge ever needed) and every file committed by the last
// force before the crash is present with correct contents.
func TestCrashPointSweep(t *testing.T) {
	// First run the workload uncrashed to learn the total write count.
	totalWrites := func() int {
		clk := sim.NewVirtualClock()
		d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
		v, err := Format(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		runMixedWorkload(t, v, nil)
		return d.Stats().Writes
	}()
	if totalWrites < 20 {
		t.Fatalf("workload too small: %d writes", totalWrites)
	}
	step := totalWrites / 25 // ~25 crash points
	if step == 0 {
		step = 1
	}
	for cut := 1; cut < totalWrites; cut += step {
		cut := cut
		t.Run(fmt.Sprintf("afterWrite%03d", cut), func(t *testing.T) {
			clk := sim.NewVirtualClock()
			d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
			v, err := Format(d, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			d.SetWriteFault(disk.FailAfterWrites(cut, 0))
			committed := runMixedWorkload(t, v, d)
			d.Revive()
			v2, _, err := Mount(d, testConfig())
			if err != nil {
				t.Fatalf("mount after crash at write %d: %v", cut, err)
			}
			if err := v2.nt.Check(); err != nil {
				t.Fatalf("name table corrupt after crash at write %d: %v", cut, err)
			}
			for name, data := range committed {
				f, err := v2.Open(name, 0)
				if err != nil {
					t.Fatalf("committed %s lost (crash at write %d): %v", name, cut, err)
				}
				got, err := f.ReadAll()
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("committed %s corrupted (crash at write %d): %v", name, cut, err)
				}
			}
			// The recovered volume is immediately usable.
			if _, err := v2.Create("post/crash", payload(100, 1)); err != nil {
				t.Fatalf("create after recovery: %v", err)
			}
		})
	}
}

// runMixedWorkload performs creates, versions, touches, and deletes,
// forcing periodically, and returns the contents that were durable at the
// last successful force. It stops silently at the first ErrHalted.
func runMixedWorkload(t *testing.T, v *Volume, d *disk.Disk) map[string][]byte {
	t.Helper()
	committed := map[string][]byte{}
	staged := map[string][]byte{}
	var stagedDeletes []string
	halt := func(err error) bool {
		return errors.Is(err, disk.ErrHalted)
	}
	// 95 files give the sweeps 48 device writes to crash at: a create's
	// writes are held until the force, so a file costs about half a write.
	for i := 0; i < 95; i++ {
		name := fmt.Sprintf("mix/f%03d", i)
		data := payload(150+i*31, byte(i))
		if _, err := v.Create(name, data); err != nil {
			if halt(err) {
				return committed
			}
			t.Fatal(err)
		}
		staged[name] = data
		if i%3 == 0 {
			if err := v.Touch(name, 0); err != nil {
				if halt(err) {
					return committed
				}
				t.Fatal(err)
			}
		}
		if i%7 == 6 {
			victim := fmt.Sprintf("mix/f%03d", i-3)
			if err := v.Delete(victim, 0); err != nil {
				if halt(err) {
					return committed
				}
				t.Fatal(err)
			}
			delete(staged, victim)
			stagedDeletes = append(stagedDeletes, victim)
		}
		if i%5 == 4 {
			if err := v.Force(); err != nil {
				if halt(err) {
					return committed
				}
				t.Fatal(err)
			}
			for k, val := range staged {
				committed[k] = val
			}
			for _, k := range stagedDeletes {
				delete(committed, k)
			}
			staged = map[string][]byte{}
			stagedDeletes = nil
		}
	}
	return committed
}

// TestSingleSectorDamageCampaign damages each metadata sector class in turn
// (one or two consecutive sectors, per the failure model) and verifies the
// paper's first requirement: "an error on any sector on the disk should
// only affect the file that contains that sector" — and loss of any part of
// the file name table never results from a single sector failure.
func TestSingleSectorDamageCampaign(t *testing.T) {
	build := func() (*Volume, *disk.Disk, map[string][]byte) {
		clk := sim.NewVirtualClock()
		d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
		v, err := Format(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("dmg/f%03d", i)
			data := payload(400+i*17, byte(i))
			if _, err := v.Create(name, data); err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
		if err := v.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return v, d, files
	}

	verifyAll := func(t *testing.T, d *disk.Disk, files map[string][]byte) {
		v2, _, err := Mount(d, testConfig())
		if err != nil {
			t.Fatalf("mount with damage: %v", err)
		}
		for name, data := range files {
			f, err := v2.Open(name, 0)
			if err != nil {
				t.Fatalf("%s lost: %v", name, err)
			}
			got, err := f.ReadAll()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s corrupted: %v", name, err)
			}
		}
	}

	t.Run("RootPagePrimary", func(t *testing.T) {
		v, d, files := build()
		_ = v
		d.CorruptSectors(0, 1)
		verifyAll(t, d, files)
	})
	t.Run("RootPageReplica", func(t *testing.T) {
		_, d, files := build()
		d.CorruptSectors(2, 1)
		verifyAll(t, d, files)
	})
	t.Run("LogAnchorPrimary", func(t *testing.T) {
		v, d, files := build()
		d.CorruptSectors(v.lay.logBase, 1)
		verifyAll(t, d, files)
	})
	t.Run("LogAnchorReplica", func(t *testing.T) {
		v, d, files := build()
		d.CorruptSectors(v.lay.logBase+2, 1)
		verifyAll(t, d, files)
	})
	t.Run("NameTableCopyA_TwoSectors", func(t *testing.T) {
		v, d, files := build()
		// Two consecutive sectors — the worst case of the failure model.
		d.CorruptSectors(v.lay.ntA+NTPageSectors, 2)
		verifyAll(t, d, files)
	})
	t.Run("NameTableCopyB_TwoSectors", func(t *testing.T) {
		v, d, files := build()
		d.CorruptSectors(v.lay.ntB+NTPageSectors, 2)
		verifyAll(t, d, files)
	})
	t.Run("VAMSaveArea", func(t *testing.T) {
		v, d, files := build()
		// Damaged VAM: "these are recovered by reconstructing the VAM."
		d.CorruptSectors(v.lay.vamBase, 2)
		verifyAll(t, d, files)
	})
	t.Run("DataSectorAffectsOnlyItsFile", func(t *testing.T) {
		_, d, files := build()
		// Damage one data sector of one known file: only that file fails.
		victim := "dmg/f010"
		v2, _, err := Mount(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		f, err := v2.Open(victim, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := f.Entry()
		addr, _, err := e.ContiguousFrom(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := v2.Shutdown(); err != nil {
			t.Fatal(err)
		}
		d.CorruptSectors(addr, 1)
		v3, _, err := Mount(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			g, err := v3.Open(name, 0)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			got, rerr := g.ReadAll()
			if name == victim {
				if rerr == nil {
					t.Fatal("read of damaged file succeeded")
				}
				continue
			}
			if rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("unrelated file %s affected: %v", name, rerr)
			}
		}
	})
	_ = fmt.Sprintf
}

// TestDamageDuringLogReplayWindow damages a name-table home sector while
// its newest content is still in the log: recovery must rewrite it.
func TestDamageDuringLogReplayWindow(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	v, err := Format(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := v.Create(fmt.Sprintf("w/f%02d", i), payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	// Both home copies of a hot name-table page damaged: recovery still
	// succeeds because the images are in the log.
	d.CorruptSectors(v.lay.ntA+4, 1)
	d.CorruptSectors(v.lay.ntB+4, 1)
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := v2.Open(fmt.Sprintf("w/f%02d", i), 0); err != nil {
			t.Fatalf("f%02d lost: %v", i, err)
		}
	}
}

// TestWildStoreDetectedByCRC smashes a name-table home sector silently (no
// damage flag — a wild write) and verifies the CRC check routes the read to
// the good copy.
func TestWildStoreDetectedByCRC(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	v, err := Format(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := v.Create(fmt.Sprintf("ws/f%02d", i), payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Silently smash a sector in the middle of a copy-A page.
	evil := payload(disk.SectorSize, 0xE0)
	d.SmashSector(v.lay.ntA+NTPageSectors+1, evil, nil)
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := v2.Open(fmt.Sprintf("ws/f%02d", i), 0); err != nil {
			t.Fatalf("file lost to silent smash: %v", err)
		}
	}
}

// TestTornLogForceSweep crashes mid-force with varying numbers of sectors of
// the interrupted write persisted (the torn-write arm of the fault model):
// the log record is left with a valid header but missing data, copies, or
// end flags. Recovery must truncate to the last intact record — every
// previously committed file survives, nothing half-written surfaces.
func TestTornLogForceSweep(t *testing.T) {
	totalWrites := func() int {
		clk := sim.NewVirtualClock()
		d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
		v, err := Format(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		runMixedWorkload(t, v, nil)
		return d.Stats().Writes
	}()
	step := totalWrites / 8
	if step == 0 {
		step = 1
	}
	for _, persist := range []int{1, 2, 3, 5} {
		for cut := 1; cut < totalWrites; cut += step {
			persist, cut := persist, cut
			t.Run(fmt.Sprintf("persist%d/afterWrite%03d", persist, cut), func(t *testing.T) {
				clk := sim.NewVirtualClock()
				d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
				v, err := Format(d, testConfig())
				if err != nil {
					t.Fatal(err)
				}
				d.SetWriteFault(disk.FailAfterWrites(cut, persist))
				committed := runMixedWorkload(t, v, d)
				d.Revive()
				v2, _, err := Mount(d, testConfig())
				if err != nil {
					t.Fatalf("mount after torn write (cut %d, persist %d): %v", cut, persist, err)
				}
				if err := v2.nt.Check(); err != nil {
					t.Fatalf("name table corrupt (cut %d, persist %d): %v", cut, persist, err)
				}
				for name, data := range committed {
					f, err := v2.Open(name, 0)
					if err != nil {
						t.Fatalf("committed %s lost (cut %d, persist %d): %v", name, cut, persist, err)
					}
					got, err := f.ReadAll()
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("committed %s corrupted (cut %d, persist %d): %v", name, cut, persist, err)
					}
				}
				if _, err := v2.Create("post/torn", payload(100, 1)); err != nil {
					t.Fatalf("create after recovery: %v", err)
				}
			})
		}
	}
}
