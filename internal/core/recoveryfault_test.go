package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// crashWithDirtyLog builds a volume with committed files and crashes it with
// replayable log records outstanding (home pages stale), so the next mount
// has real replay work to do. Returns the disk and the committed files.
func crashWithDirtyLog(t *testing.T, cfg Config) (*disk.Disk, map[string][]byte) {
	t.Helper()
	v, d, _ := newTestVolumeWith(t, cfg)
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("rf/f%02d", i)
		data := payload(200+i*151, byte(i))
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	if err := v.WaitCommitted(v.CommitSeq()); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	return d, files
}

// TestRecoveryStatsSurfaced pins the observability satellite: a mount that
// replays the log reports what it did through Stats().Recovery and records
// an EvRecovery trace event, and a clean mount says so too.
func TestRecoveryStatsSurfaced(t *testing.T) {
	d, files := crashWithDirtyLog(t, testConfig())
	v, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs := v.Stats().Recovery
	if rs != ms.MountStats {
		t.Fatalf("Stats().Recovery %+v disagrees with MountStats %+v", rs, ms.MountStats)
	}
	if rs.CleanShutdown || rs.LogRecords == 0 || rs.LogImagesApplied == 0 || rs.ReplayElapsed <= 0 {
		t.Fatalf("replay after a crash did nothing: %+v", rs)
	}
	found := false
	for _, ev := range v.TraceEvents() {
		if ev.Kind == obs.EvRecovery {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvRecovery event in the trace ring after a replaying mount")
	}
	_ = files
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}

	v2, ms2, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Crash()
	if rs2 := v2.Stats().Recovery; rs2 != ms2.MountStats || !rs2.CleanShutdown {
		t.Fatalf("Recovery after clean shutdown = %+v, want the mount's %+v, clean", rs2, ms2.MountStats)
	}
}

// TestMountUnderComposedFaults is the fault-tolerant-replay satellite: a
// crashed volume is remounted over media with read decay AND write faults
// active at once. The mount must limp through — every committed file
// readable — and the faults recovery survived must show up in the health
// classification: Degraded (aggressive scrub scheduled) rather than a
// silently Healthy mount.
func TestMountUnderComposedFaults(t *testing.T) {
	mountUnderComposedFaults(t, faultSeed(t))
}

// TestMountUnderComposedFaultsSeeds replays the composed-fault mount on
// seeds that once failed it. 1792207505474355913: with a fifth of all reads
// failing once, both copies of name-table page 1 failed all their in-place
// retries in a row, though neither was damaged — every fault of the run is
// transient, and both copies read back with a good checksum once the faults
// stop — so the mount gave up on a page it could read; the cache now reads
// the pair once more when a read of it failed.
func TestMountUnderComposedFaultsSeeds(t *testing.T) {
	for _, seed := range []int64{1792207505474355913} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { mountUnderComposedFaults(t, seed) })
	}
}

func mountUnderComposedFaults(t *testing.T, seed int64) {
	cfg := testConfig()
	cfg.ReadRetries = 8
	cfg.WriteRetries = 8
	cfg.ErrorBudget = 1 // any survived fault must classify Degraded
	d, files := crashWithDirtyLog(t, cfg)

	// Hot enough that the handful of recovery I/Os reliably draw faults.
	d.InjectFaults(disk.FaultConfig{
		Seed:           seed,
		TransientRead:  0.2,
		TransientWrite: 0.05,
	})
	v, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatalf("mount under composed faults: %v", err)
	}
	d.ClearFaults()
	for name, want := range files {
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatalf("%s lost across faulty recovery: %v", name, err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s content wrong after faulty recovery: %v", name, err)
		}
	}
	st := v.Stats()
	if st.Faults.ErrorBudget == 0 {
		t.Fatalf("recovery under hot decay charged nothing to health: %+v", st.Faults)
	}
	// The classification contract: a used budget at or past the limit may
	// not leave the volume silently Healthy.
	if st.Faults.ErrorBudget >= cfg.ErrorBudget && st.Health < HealthDegraded {
		t.Fatalf("health %v with %d budget used after faulty recovery, want >= Degraded",
			st.Health, st.Faults.ErrorBudget)
	}
	if st.Health >= HealthOffline {
		t.Fatalf("health %v after survivable faults", st.Health)
	}
	v.Crash()
}

// TestMountWhileScrubHammer mounts a Degraded volume (scrub auto-scheduled
// by finishMount) and immediately hammers it with concurrent reads and
// creates while the scrub pass runs — the -race line's mount/scrub
// composition check.
func TestMountWhileScrubHammer(t *testing.T) {
	cfg := testConfig()
	cfg.ReadRetries = 8
	d, files := crashWithDirtyLog(t, cfg)
	v, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	// Degrade deterministically right after the mount (fault charges during
	// replay are count-nondeterministic with parallel mount workers): the
	// Degraded edge schedules the scrub exactly as a faulty recovery would.
	v.degradeTo(HealthDegraded, "test: forced after mount")
	if v.Health() != HealthDegraded {
		t.Fatalf("health %v, want Degraded", v.Health())
	}

	var wg sync.WaitGroup
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := names[(w*50+i)%len(names)]
				f, err := v.Open(name, 0)
				if err != nil {
					t.Errorf("open %s during scrub: %v", name, err)
					return
				}
				if _, err := f.ReadAll(); err != nil {
					t.Errorf("read %s during scrub: %v", name, err)
					return
				}
				if i%10 == 0 {
					if _, err := v.Create(fmt.Sprintf("hm/w%d-%d", w, i), payload(64, byte(i))); err != nil {
						t.Errorf("create during scrub: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for v.Stats().Faults.Scrubs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduled scrub never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
