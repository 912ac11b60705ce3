package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
)

// waitHealth polls (real time; the transitions happen on other goroutines)
// until the volume reaches at least h.
func waitHealth(t *testing.T, v *Volume, h Health) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v.Health() < h {
		if time.Now().After(deadline) {
			t.Fatalf("health stuck at %v, want >= %v (reason %q)",
				v.Health(), h, v.HealthReason())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteFaultsGracefulDegradation runs a mutation workload under seeded
// transient and bad-on-write faults: every operation either succeeds (the
// retry/remap policy absorbed the faults) or the volume has transitioned to
// read-only — no op may fail while the volume still claims to be writable,
// and reads must keep serving afterwards.
func TestWriteFaultsGracefulDegradation(t *testing.T) {
	seed := faultSeed(t)
	v, d, _ := newTestVolume(t)
	d.InjectFaults(disk.FaultConfig{Seed: seed, TransientWrite: 0.02, BadOnWrite: 0.005})

	var created []string
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("f%03d", i)
		_, err := v.Create(name, payload(900, byte(i)))
		if err != nil {
			if v.Health() < HealthReadOnly {
				t.Fatalf("create %d failed (%v) while health is %v", i, err, v.Health())
			}
			break
		}
		created = append(created, name)
	}
	st := v.Stats()
	if st.Faults.WriteRetries == 0 && st.Faults.WriteRemaps == 0 {
		t.Fatalf("fault path never exercised: %+v", st.Faults)
	}
	if st.Health >= HealthReadOnly {
		if _, err := v.Create("after", nil); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("mutation on read-only volume = %v, want ErrReadOnly", err)
		}
	}
	// Reads keep serving regardless of the health state (the created
	// files' data writes all succeeded before their create returned).
	d.ClearFaults()
	for _, name := range created {
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatalf("open %q after fault workload: %v", name, err)
		}
		if _, err := f.ReadAll(); err != nil {
			t.Fatalf("read %q after fault workload: %v", name, err)
		}
	}
}

// TestSpareExhaustionTransitionsReadOnly: when the spare pool runs dry the
// write path cannot retire bad sectors any more, so the volume must stop
// promising durability — mutations refused, reads still served.
func TestSpareExhaustionTransitionsReadOnly(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := payload(700, 3)
	if _, err := v.Create("keep", data); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	d.SetSpares(2)
	d.InjectFaults(disk.FaultConfig{Seed: faultSeed(t), BadOnWrite: 1})
	// The create's data is held in the data cache; the force writes it.
	if _, err := v.Create("doomed", payload(700, 4)); err == nil && v.Force() == nil {
		t.Fatal("create and force succeeded with every written sector going bad")
	}
	if got := v.Health(); got != HealthReadOnly {
		t.Fatalf("health = %v after spare exhaustion, want read-only (reason %q)",
			got, v.HealthReason())
	}
	d.ClearFaults()
	if _, err := v.Create("late", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Create = %v on read-only volume, want ErrReadOnly", err)
	}
	if err := v.Touch("keep", 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Touch = %v on read-only volume, want ErrReadOnly", err)
	}
	if err := v.Force(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Force = %v on read-only volume, want ErrReadOnly", err)
	}
	f, err := v.Open("keep", 0)
	if err != nil {
		t.Fatalf("read-only volume refused a read: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil || len(got) != len(data) {
		t.Fatalf("read on read-only volume: %v (%d bytes)", err, len(got))
	}
	// Shutdown must leave the volume stamped unclean: durability of the
	// recent history is exactly what is in doubt.
	if err := v.Shutdown(); err != nil {
		t.Fatalf("Shutdown of read-only volume: %v", err)
	}
	root, err := readRoot(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root.clean {
		t.Fatal("read-only health shutdown stamped the volume clean")
	}
}

// TestScrubSpareExhaustionFlagged: a scrub pass that cannot retire a stuck
// sector because the spare pool is dry must say so in its stats (fsdctl maps
// the flag to its own exit code) and demote the volume to read-only.
func TestScrubSpareExhaustionFlagged(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("a", payload(500, 5)); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	d.SetSpares(0)
	d.MarkStuck(v.lay.ntA, 1) // unrepairable in place, unretirable
	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !st.SpareExhausted {
		t.Fatalf("scrub did not flag spare exhaustion: %+v", st)
	}
	if got := v.Health(); got != HealthReadOnly {
		t.Fatalf("health = %v after spare exhaustion during scrub, want read-only", got)
	}
}

// TestHungIOClassifiedAgainstDeadline: operations stalled past
// the I/O deadline (opTimeout) count as faults and burn the error budget; the volume
// degrades instead of silently absorbing multi-second commits. Reads are
// never stalled by the injector, so they keep serving.
func TestHungIOClassifiedAgainstDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.ErrorBudget = 8 // one hung op reaches Degraded, four reach ReadOnly
	v, d, _ := newTestVolumeWith(t, cfg)
	if _, err := v.Create("pre", payload(500, 9)); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(disk.FaultConfig{Seed: faultSeed(t), HungIO: 1})
	// Every write op now stalls 2 s against the default 1 s deadline.
	// A create and the force that writes its held data issue several write
	// ops, so the budget (8 per hung op) blows through 4x8=32 and the
	// volume lands in ReadOnly.
	for i := 0; i < 8 && v.Health() < HealthReadOnly; i++ {
		_, _ = v.Create(fmt.Sprintf("h%d", i), payload(500, byte(i)))
		_ = v.Force()
	}
	st := v.Stats()
	if st.Faults.HungOps == 0 {
		t.Fatal("no hung ops classified under 100% hung-I/O injection")
	}
	if st.Health < HealthDegraded {
		t.Fatalf("health = %v after %d hung ops (budget %d), want >= degraded",
			st.Health, st.Faults.HungOps, st.Faults.ErrorBudget)
	}
	// Reads are not stalled and not refused below Offline.
	f, err := v.Open("pre", 0)
	if err != nil {
		t.Fatalf("read under hung-I/O injection: %v", err)
	}
	if _, err := f.ReadAll(); err != nil {
		t.Fatalf("ReadAll under hung-I/O injection: %v", err)
	}
}

// TestDegradedSchedulesScrub: crossing the error budget must kick off an
// immediate scrub pass (the background cadence is too slow for a decaying
// device), while the volume keeps serving.
func TestDegradedSchedulesScrub(t *testing.T) {
	cfg := testConfig()
	cfg.ErrorBudget = 8
	cfg.WriteRetries = 8
	v, d, _ := newTestVolumeWith(t, cfg)
	d.InjectFaults(disk.FaultConfig{Seed: faultSeed(t), TransientWrite: 0.3})
	// Each create is forced on its own, so that its held data is written,
	// and the budget charged, one create at a time: one force writing
	// forty creates' data under the faults would blow through the budget
	// to read-only in one step.
	for i := 0; i < 40 && v.Health() < HealthDegraded; i++ {
		if _, err := v.Create(fmt.Sprintf("d%d", i), payload(600, byte(i))); err != nil {
			t.Fatalf("create %d failed under absorbable faults: %v", i, err)
		}
		if err := v.Force(); err != nil {
			t.Fatalf("force %d failed under absorbable faults: %v", i, err)
		}
	}
	waitHealth(t, v, HealthDegraded)
	d.ClearFaults() // let the scheduled scrub run clean
	deadline := time.Now().Add(5 * time.Second)
	for v.Stats().Faults.Scrubs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no scrub pass ran after the Degraded transition")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHaltedDeviceGoesOffline: ErrHalted is not a media fault — the whole
// device is gone, and even reads must be refused with ErrOffline.
func TestHaltedDeviceGoesOffline(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("a", payload(300, 1)); err != nil {
		t.Fatal(err)
	}
	d.Halt()
	// The create's data is held in the data cache; the force writes it.
	if _, err := v.Create("b", payload(300, 2)); err == nil && v.Force() == nil {
		t.Fatal("create and force succeeded on a halted device")
	}
	if got := v.Health(); got != HealthOffline {
		t.Fatalf("health = %v after device halt, want offline", got)
	}
	if _, err := v.Open("a", 0); !errors.Is(err, ErrOffline) {
		t.Fatalf("Open on offline volume = %v, want ErrOffline", err)
	}
	if _, err := v.Create("c", nil); !errors.Is(err, ErrOffline) {
		t.Fatalf("Create on offline volume = %v, want ErrOffline", err)
	}
}

// TestIntentFatalFailsOverReadOnly: a fatal error on the async applier must
// drain the queue, release the waiters with the error, and flip the volume
// to read-only — instead of poisoning every future wait.
func TestIntentFatalFailsOverReadOnly(t *testing.T) {
	cfg := testConfig()
	cfg.AsyncApply = true
	v, d, _ := newTestVolumeWith(t, cfg)
	if _, err := v.Create("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := v.DrainIntents(); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	// Park the applier, enqueue a touch (validation succeeds from the warm
	// cache), then yank the name table out from under the applier: empty
	// cache plus both home copies stuck means its page fill cannot succeed.
	v.q.Suspend()
	if err := v.Touch("a", 0); err != nil {
		t.Fatalf("touch enqueue: %v", err)
	}
	if err := v.log.Force(); err != nil { // cached pages now clean to drop
		t.Fatal(err)
	}
	v.cache.mu.Lock()
	v.cache.pages = make(map[uint32]*ntPage)
	v.cache.mu.Unlock()
	ntSectors := v.lay.ntPages * NTPageSectors
	d.MarkStuck(v.lay.ntA, ntSectors)
	d.MarkStuck(v.lay.ntB, ntSectors)
	v.q.Resume()

	if err := v.DrainIntents(); err == nil {
		t.Fatal("Drain succeeded with the name table unreadable")
	}
	waitHealth(t, v, HealthReadOnly)
	if err := v.Touch("a", 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Touch after applier failure = %v, want ErrReadOnly", err)
	}
	if seq := v.q.FailedFrom(); seq == 0 {
		t.Fatal("queue reports no failed range after a fatal apply error")
	}
}

// TestHealthTransitionHammer runs concurrent mutators, readers, stats
// snapshots, and scrubs under a hostile fault mix. Run with -race: the
// assertions are secondary to the absence of data races, deadlocks, and
// panics; the one hard invariant is that health only moves forward.
func TestHealthTransitionHammer(t *testing.T) {
	seed := faultSeed(t)
	v, d, _ := newTestVolume(t)
	d.SetSpares(16)
	d.InjectFaults(disk.FaultConfig{
		Seed:           seed,
		TransientWrite: 0.05,
		BadOnWrite:     0.01,
		HungIO:         0.02,
		HungIODelay:    1500 * time.Millisecond,
	})
	var wg sync.WaitGroup
	var healthWentBack atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := HealthHealthy
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				switch i % 5 {
				case 0, 1:
					_, _ = v.Create(name, payload(400, byte(i)))
				case 2:
					if f, err := v.Open(fmt.Sprintf("w%d-%d", w, i-2), 0); err == nil {
						_, _ = f.ReadAll()
					}
				case 3:
					_ = v.Force()
				case 4:
					_ = v.Stats()
				}
				if h := v.Health(); h < last {
					healthWentBack.Add(1)
				} else {
					last = h
				}
			}
		}(w)
	}
	wg.Wait()
	if healthWentBack.Load() != 0 {
		t.Fatal("health state moved backwards under concurrency")
	}
	st := v.Stats()
	if st.Health >= HealthReadOnly {
		if _, err := v.Create("post", nil); !errors.Is(err, ErrReadOnly) && !errors.Is(err, ErrOffline) {
			t.Fatalf("mutation on %v volume = %v, want refusal", st.Health, err)
		}
	}
}

// TestLogOpenRetriesCharged: the log reads through the volume's own retried
// read from its first I/O. On a crash mount over a dead anchor copy A, the
// dead sector is read once — by wal.Open; the replay starts from the anchor
// Open read — and that read spends the whole retry budget on the volume's
// books: it is counted in Faults.ReadRetries and charged to the error
// budget.
func TestLogOpenRetriesCharged(t *testing.T) {
	const retries = 3
	cfg := testConfig()
	cfg.ReadRetries = retries
	v, d, _ := newTestVolumeWith(t, cfg)
	if _, err := v.Create("f", payload(900, 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.WaitCommitted(v.CommitSeq()); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	d.CorruptSectors(v.lay.logBase, 1)
	v2, ms, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Crash()
	if ms.CleanShutdown || ms.LogRecords == 0 {
		t.Fatalf("mount clean=%v replayed %d records; want a crash mount that replays", ms.CleanShutdown, ms.LogRecords)
	}
	if f := v2.Stats().Faults; f.ReadRetries != retries || f.ErrorBudget != retries || f.RetriedOK != 0 {
		t.Fatalf("faults %+v: want %d read retries charged (one read of the dead anchor), none saving a read",
			f, retries)
	}
}
