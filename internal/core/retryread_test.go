package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/disk"
)

// transientRate is the read-fault rate the tests below pick a seed for.
const transientRate = 0.05

// transientSeed returns a fault seed under which the read-fault model at
// transientRate fails sector k of an n-sector transfer once — neither its
// first sector nor its last — and passes every other sector read after the
// transfer starts: the resumed rest of it and then more sectors. With only
// TransientRead set, the injector draws once per sector read.
func transientSeed(n, more int) (seed int64, k int) {
	for seed = 1; ; seed++ {
		r := rand.New(rand.NewSource(seed))
		k = -1
		for i := 0; i <= n+more; i++ {
			if r.Float64() >= transientRate {
				continue
			}
			if k >= 0 {
				k = -1
				break
			}
			k = i
		}
		if k > 0 && k < n-1 {
			return seed, k
		}
	}
}

// TestRetriedReadResumesAtFailingSector: a file read and a name-table miss
// that meet a transient fault in the middle of a transfer retry from the
// failing sector on. ReadRetries and RetriedOK each rise by one, and the
// disk reads each healthy sector once: the failing sector's retry is the
// only sector read twice.
func TestRetriedReadResumesAtFailingSector(t *testing.T) {
	v, f, want := newDataVolume(t, -1, 16)
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil { // the handle's leader is checked now
		t.Fatal(err)
	}
	t.Run("ReadAt", func(t *testing.T) {
		checkResume(t, v, f.Pages(), 0, func() error {
			clear(got)
			if _, err := f.ReadAt(got, 0); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return errors.New("wrong data")
			}
			return nil
		})
	})
	t.Run("name-table miss", func(t *testing.T) {
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		// A miss reads copy A, then copy B.
		checkResume(t, v, NTPageSectors, NTPageSectors, func() error {
			_, err := v.cache.Read(0)
			return err
		})
	})
}

// checkResume runs read under a fault seed picked for a transfer of n
// sectors followed by more, and checks what the retry cost.
func checkResume(t *testing.T, v *Volume, n, more int, read func() error) {
	t.Helper()
	d := v.d
	seed, k := transientSeed(n, more)
	before, disk0 := v.Stats().Faults, d.Stats()
	d.InjectFaults(disk.FaultConfig{Seed: seed, TransientRead: transientRate})
	err := read()
	d.ClearFaults()
	if err != nil {
		t.Fatalf("read with sector %d of %d failing once: %v", k, n, err)
	}
	after, ds := v.Stats().Faults, d.Stats().Sub(disk0)
	if after.ReadRetries != before.ReadRetries+1 || after.RetriedOK != before.RetriedOK+1 {
		t.Fatalf("ReadRetries %d → %d, RetriedOK %d → %d; want each +1",
			before.ReadRetries, after.ReadRetries, before.RetriedOK, after.RetriedOK)
	}
	if ds.SectorsRead != n+1+more {
		t.Fatalf("%d sectors read, want %d (each once, sector %d twice)", ds.SectorsRead, n+1+more, k)
	}
	if after.ErrorBudget != before.ErrorBudget {
		t.Fatalf("a steady-state retry charged the error budget (%d → %d)", before.ErrorBudget, after.ErrorBudget)
	}
}

// TestHaltedReadTakesVolumeOffline: a read that finds the device halted
// takes the volume Offline, as a write that finds it halted does.
func TestHaltedReadTakesVolumeOffline(t *testing.T) {
	v, f, want := newDataVolume(t, -1, 16)
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	v.d.Halt()
	if _, err := f.ReadAt(got, 0); !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("ReadAt on a halted device = %v, want disk.ErrHalted", err)
	}
	if h := v.Health(); h != HealthOffline {
		t.Fatalf("health after a halted read = %v, want %v", h, HealthOffline)
	}
}

// TestScrubRepairDoesNotCharge: a scrub that retries and repairs decayed
// copies — name-table pages, the root replica, a leader — leaves the error
// budget where it was and the volume Healthy. The retries count; they are
// the scrub doing its job, not a health event (DESIGN §9, §15).
func TestScrubRepairDoesNotCharge(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := populate(t, v, 30)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for i, id := range allocatedNTPages(t, v, d) {
		a, b := v.lay.ntPageAddrs(id)
		if i%2 == 1 {
			a = b
		}
		d.CorruptSectors(a+i%NTPageSectors, 1)
	}
	d.CorruptSectors(v.lay.rootB, 1)
	for name := range files {
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := f.Entry()
		leader, _ := e.LeaderAddr()
		d.CorruptSectors(leader, 1)
		break
	}

	before := v.Stats().Faults
	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	after := v.Stats().Faults
	if st.NTRepaired == 0 || st.RootsRepaired != 1 || st.LeadersRepaired != 1 {
		t.Fatalf("scrub repaired %d pages, %d roots, %d leaders; want some, 1, 1", st.NTRepaired, st.RootsRepaired, st.LeadersRepaired)
	}
	if after.ReadRetries <= before.ReadRetries {
		t.Fatalf("scrub over decayed copies spent no read retries (%d → %d)", before.ReadRetries, after.ReadRetries)
	}
	if after.ErrorBudget != before.ErrorBudget {
		t.Fatalf("scrub charged the error budget: %d → %d", before.ErrorBudget, after.ErrorBudget)
	}
	if h := v.Health(); h != HealthHealthy {
		t.Fatalf("health after a repairing scrub = %v, want %v", h, HealthHealthy)
	}
}

// TestNameTableMissReadsEachCopyOnce: a miss whose page has one dead sector
// in each copy reads each copy once — up to its dead sector, then that sector
// alone by its retries — and reports the page lost: 10 sectors in 6 reads,
// where reading the pair a second time took 20 in 12.
func TestNameTableMissReadsEachCopyOnce(t *testing.T) {
	cfg := testConfig()
	v, d, _ := newTestVolumeWith(t, cfg)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	a, b := v.lay.ntPageAddrs(0)
	d.CorruptSectors(a+2, 1)
	d.CorruptSectors(b+2, 1)
	disk0 := d.Stats()
	if _, err := v.cache.Read(0); err == nil {
		t.Fatal("page 0 read with a dead sector in each copy")
	}
	r := cfg.readRetries()
	ds := d.Stats().Sub(disk0)
	if sectors, reads := 2*(3+r), 2*(1+r); ds.SectorsRead != sectors || ds.Reads != reads {
		t.Fatalf("the miss read %d sectors in %d reads, want %d in %d (each copy once)", ds.SectorsRead, ds.Reads, sectors, reads)
	}
}
