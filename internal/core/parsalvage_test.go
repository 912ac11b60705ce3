package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// salvageImage builds a volume with known files plus pre-planted data-region
// damage, destroys both name-table copies, and returns the crashable image
// and the expected surviving file contents. Damage is pre-planted — never a
// live fault probability — so every salvage of a clone sees the identical
// disk regardless of how its workers are scheduled.
func salvageImage(t *testing.T) (*disk.Disk, map[string][]byte) {
	t.Helper()
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := map[string][]byte{}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("ps/f%03d", i)
		data := payload(150+i*271, byte(i))
		if i%9 == 8 {
			data = nil
		}
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A few unreadable data sectors away from any leader: the sweep's
	// fallback path must classify them identically at every width.
	lay := v.lay
	for off := 200; off < 260; off += 17 {
		addr := lay.dataLo + off
		if !isLeaderOf(d, addr, files) {
			d.CorruptSectors(addr, 1)
		}
	}
	destroyNameTable(d, v)
	return d, files
}

// isLeaderOf reports whether addr currently decodes as a candidate leader —
// the image builder avoids corrupting real leaders so the expected file set
// stays exact.
func isLeaderOf(d *disk.Disk, addr int, files map[string][]byte) bool {
	buf, _, err := disk.ReadSectorsRetry(d, addr, 1, 0)
	if err != nil {
		return false
	}
	e, _, ok := decodeLeaderEntry(buf)
	if !ok || len(e.Runs) == 0 || int(e.Runs[0].Start) != addr {
		return false
	}
	_, known := files[e.Name]
	return known
}

// volumeListing reads back every entry (name, version, content) for the
// determinism oracle: two salvages rebuilt the same volume iff their
// listings are identical.
func volumeListing(t *testing.T, v *Volume) []string {
	t.Helper()
	var keys []string
	err := v.nt.Scan(nil, func(k, _ []byte) bool {
		name, ver, ok := splitKey(k)
		if ok {
			keys = append(keys, fmt.Sprintf("%s!%d", name, ver))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// normalizeSalvageStats zeroes the fields legitimately dependent on
// scheduling or timing — elapsed times, CPU, steal counts — leaving
// everything the determinism contract covers: counts, checkpoints,
// problems, recovery results.
func normalizeSalvageStats(st SalvageStats) SalvageStats {
	st.Elapsed = 0
	st.SweepElapsed = 0
	st.SweepCPU = 0
	st.SweepArm = 0
	st.SweepHidden = 0
	st.RebuildElapsed = 0
	st.FinalizeElapsed = 0
	st.Steals = 0
	st.Workers = 0
	return st
}

// TestParallelSalvageMatchesSequential is the direct determinism oracle:
// the same damaged image salvaged at widths 1, 2, and 8 must produce
// byte-identical SalvageStats (normalized) and an identical rebuilt
// volume.
func TestParallelSalvageMatchesSequential(t *testing.T) {
	d, files := salvageImage(t)

	type outcome struct {
		st      SalvageStats
		listing []string
	}
	run := func(workers int) outcome {
		cfg := testConfig()
		cfg.CheckWorkers = workers
		dc := d.Clone(sim.NewVirtualClock())
		v, st, err := Salvage(dc, cfg)
		if err != nil {
			t.Fatalf("Salvage(workers=%d): %v", workers, err)
		}
		for name, want := range files {
			f, err := v.Open(name, 0)
			if err != nil {
				t.Fatalf("workers=%d: %s lost: %v", workers, name, err)
			}
			if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: %s content wrong: %v", workers, name, err)
			}
		}
		listing := volumeListing(t, v)
		v.Crash()
		return outcome{normalizeSalvageStats(st), listing}
	}

	base := run(1)
	if base.st.SectorsScanned == 0 || base.st.CandidateLeaders < len(files) {
		t.Fatalf("sequential salvage implausible: %+v", base.st)
	}
	if base.st.DamagedSectors == 0 {
		t.Fatal("pre-planted damage not seen by the sweep")
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if fmt.Sprintf("%+v", got.st) != fmt.Sprintf("%+v", base.st) {
			t.Fatalf("workers=%d: stats diverge\n got: %+v\nwant: %+v", workers, got.st, base.st)
		}
		if fmt.Sprint(got.listing) != fmt.Sprint(base.listing) {
			t.Fatalf("workers=%d: rebuilt listing diverges\n got: %v\nwant: %v", workers, got.listing, base.listing)
		}
	}
}

// TestParallelSalvageCrashResumeDeterminism composes the crashtest
// machinery with the parallel sweep: a wide salvage is crashed at sampled
// barrier epochs, resumed with a *different* worker count, and the rebuilt
// volume must match the no-crash reference exactly. This is the checkpoint
// prefix rule under fire: whatever chunks in-flight workers had finished
// beyond the cursor at the crash, the resumed sweep re-derives them.
func TestParallelSalvageCrashResumeDeterminism(t *testing.T) {
	d, files := salvageImage(t)

	// Reference: no-crash sequential salvage of a clone.
	refCfg := testConfig()
	refCfg.CheckWorkers = 1
	refDisk := d.Clone(sim.NewVirtualClock())
	refVol, refSt, err := Salvage(refDisk, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refListing := volumeListing(t, refVol)
	refVol.Crash()

	// Crash run: wide sweep under a write-back window.
	wideCfg := testConfig()
	wideCfg.CheckWorkers = 4
	wideDisk := d.Clone(sim.NewVirtualClock())
	wideDisk.EnableWriteBack()
	wideVol, wideSt, err := Salvage(wideDisk, wideCfg)
	if err != nil {
		t.Fatalf("Salvage under write-back: %v", err)
	}
	if got, want := fmt.Sprintf("%+v", normalizeSalvageStats(wideSt)), fmt.Sprintf("%+v", normalizeSalvageStats(refSt)); got != want {
		t.Fatalf("wide no-crash stats diverge from reference\n got: %s\nwant: %s", got, want)
	}
	trace := wideDisk.Trace()
	wideVol.Crash()
	maxEpoch := 0
	for _, w := range trace {
		if w.Epoch > maxEpoch {
			maxEpoch = w.Epoch
		}
	}
	if maxEpoch < 8 {
		t.Fatalf("wide salvage produced only %d barrier epochs", maxEpoch)
	}

	resumed, violations := 0, 0
	for e := 1; e <= maxEpoch+1; e += 2 { // sampled epochs
		dc := wideDisk.Clone(sim.NewVirtualClock())
		for _, w := range trace {
			if w.Epoch < e {
				dc.ApplyJournaled(w)
			}
		}
		// Resume with a different width than the run that crashed.
		resCfg := testConfig()
		resCfg.CheckWorkers = 1 + (e % 8)
		v, st, err := Salvage(dc, resCfg)
		if err != nil {
			t.Fatalf("epoch %d: resume salvage (workers=%d): %v", e, resCfg.CheckWorkers, err)
		}
		if st.Resumed {
			resumed++
		}
		for name, want := range files {
			f, err := v.Open(name, 0)
			if err != nil {
				violations++
				t.Errorf("epoch %d: %s lost across crash (resumed=%v, workers=%d): %v",
					e, name, st.Resumed, resCfg.CheckWorkers, err)
				continue
			}
			if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
				violations++
				t.Errorf("epoch %d: %s content wrong after resume: %v", e, name, err)
			}
		}
		if listing := volumeListing(t, v); fmt.Sprint(listing) != fmt.Sprint(refListing) {
			violations++
			t.Errorf("epoch %d: rebuilt listing diverges from reference\n got: %v\nwant: %v", e, listing, refListing)
		}
		if vrep, err := v.Verify(); err != nil || len(vrep.Problems) != 0 {
			violations++
			t.Errorf("epoch %d: Verify after resumed salvage: %v %v", e, err, vrep.Problems)
		}
		v.Crash()
	}
	t.Logf("epochs=%d (sampled every 2) resumed=%d violations=%d", maxEpoch, resumed, violations)
	if resumed == 0 {
		t.Error("no sampled crash image resumed from a checkpoint")
	}
	if violations != 0 {
		t.Fatalf("%d durability/determinism violations", violations)
	}
}
