package disk

import (
	"bytes"
	"errors"
	"flag"
	"testing"
	"time"

	"repro/internal/sim"
)

// seedFlag reproduces probabilistic fault-test failures:
// go test ./internal/disk -run X -seed N
var seedFlag = flag.Int64("seed", 0, "fault-injection seed (0 derives one from the clock)")

func faultSeed(t *testing.T) int64 {
	seed := *seedFlag
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with: go test ./internal/disk -run '%s' -seed %d", t.Name(), seed)
		}
	})
	return seed
}

func newFaultDisk(t *testing.T) *Disk {
	t.Helper()
	d, err := New(SmallGeometry, DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: faultSeed(t), TransientRead: 0.1, LatentError: 0.05, StuckFraction: 0.5, BitRot: 0.02}
	run := func() (FaultStats, []error) {
		d := newFaultDisk(t)
		for i := 0; i < 64; i++ {
			if err := d.WriteSectors(i*7, bytes.Repeat([]byte{byte(i)}, SectorSize)); err != nil {
				t.Fatal(err)
			}
		}
		d.InjectFaults(cfg)
		var errs []error
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 64; i++ {
				_, err := d.ReadSectors(i*7, 1)
				errs = append(errs, err)
			}
		}
		return d.FaultStats(), errs
	}
	st1, errs1 := run()
	st2, errs2 := run()
	if st1 != st2 {
		t.Fatalf("fault stats diverged: %+v vs %+v", st1, st2)
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("read %d: %v vs %v", i, errs1[i], errs2[i])
		}
	}
	if st1.TransientErrors == 0 && st1.LatentErrors == 0 {
		t.Fatalf("injector produced no faults at all: %+v", st1)
	}
}

func TestLatentErrorPersistsUntilRewrite(t *testing.T) {
	d := newFaultDisk(t)
	if err := d.WriteSectors(100, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(FaultConfig{Seed: 1, LatentError: 1})
	if _, err := d.ReadSectors(100, 1); err == nil {
		t.Fatal("latent error not injected")
	}
	d.ClearFaults()
	// Damage persists after the injector is gone...
	if _, err := d.ReadSectors(100, 1); err == nil {
		t.Fatal("latent damage did not persist")
	}
	// ...until a rewrite clears it.
	if err := d.WriteSectors(100, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadSectors(100, 1); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestTransientErrorLeavesNoDamage(t *testing.T) {
	d := newFaultDisk(t)
	d.InjectFaults(FaultConfig{Seed: 2, TransientRead: 1})
	if _, err := d.ReadSectors(5, 1); err == nil {
		t.Fatal("transient error not injected")
	}
	d.ClearFaults()
	if _, err := d.ReadSectors(5, 1); err != nil {
		t.Fatalf("transient fault persisted: %v", err)
	}
}

func TestBitRotIsSilent(t *testing.T) {
	d := newFaultDisk(t)
	want := bytes.Repeat([]byte{0xAB}, SectorSize)
	if err := d.WriteSectors(9, want); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(FaultConfig{Seed: 3, BitRot: 1})
	got, err := d.ReadSectors(9, 1)
	if err != nil {
		t.Fatalf("bit rot must not error: %v", err)
	}
	if bytes.Equal(got, want) {
		t.Fatal("bit rot did not corrupt the data")
	}
	if d.FaultStats().BitRotEvents == 0 {
		t.Fatal("bit rot not counted")
	}
}

func TestStuckSectorSurvivesRewriteUntilRemap(t *testing.T) {
	d := newFaultDisk(t)
	d.MarkStuck(50, 1)
	if _, err := d.ReadSectors(50, 1); err == nil {
		t.Fatal("stuck sector readable")
	}
	// The rewrite reports success but the sector stays bad.
	if err := d.WriteSectors(50, make([]byte, SectorSize)); err != nil {
		t.Fatalf("write to stuck sector errored: %v", err)
	}
	if _, err := d.ReadSectors(50, 1); err == nil {
		t.Fatal("rewrite cleared a stuck sector")
	}
	before := d.SparesLeft()
	if err := d.Remap(50); err != nil {
		t.Fatal(err)
	}
	if d.SparesLeft() != before-1 {
		t.Fatalf("spares %d, want %d", d.SparesLeft(), before-1)
	}
	if !d.IsRemapped(50) {
		t.Fatal("sector not marked remapped")
	}
	// The spare starts blank and writes/reads work normally.
	payload := bytes.Repeat([]byte{7}, SectorSize)
	if err := d.WriteSectors(50, payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadSectors(50, 1)
	if err != nil {
		t.Fatalf("read after remap: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remapped sector lost the rewrite")
	}
}

func TestRemapExhaustsSpares(t *testing.T) {
	d := newFaultDisk(t)
	d.SetSpares(2)
	for _, addr := range []int{10, 11} {
		if err := d.Remap(addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remap(12); !errors.Is(err, ErrNoSpares) {
		t.Fatalf("remap with empty pool: %v", err)
	}
	if st := d.FaultStats(); st.Remaps != 2 || st.SparesLeft != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReadRetryPerSector pins ReadSectorsRetry's per-sector budget: a retry
// resumes at the sector that failed and progress restores the in-place
// budget, so a long run over a transiently faulty surface needs only
// per-sector luck. A whole-run retry needs every sector to pass in one
// attempt — at this fault rate a 32-sector run would essentially never
// survive — and, worse, each extra pass rolls the fault model again for
// sectors that had already read fine, so under a latent-decay model the
// retries themselves decay the surface (the amplification that broke crash
// recovery at scale).
func TestReadRetryPerSector(t *testing.T) {
	d := newFaultDisk(t)
	want := make([]byte, 32*SectorSize)
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := d.WriteSectors(100, want); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(FaultConfig{Seed: 42, TransientRead: 0.3})
	got, retried, err := ReadSectorsRetry(d, 100, 32, 8)
	if err != nil {
		t.Fatalf("ReadSectorsRetry: %v after %d retries", err, retried)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed read returned wrong data")
	}
	if retried == 0 {
		t.Fatal("fault rate 0.3 over 32 sectors spent no retries — injector inactive?")
	}

	// A persistently damaged sector still fails the run with its own
	// DamagedError: the retries resume at damage, they do not skip it.
	d.InjectFaults(FaultConfig{})
	d.CorruptSectors(110, 1)
	_, _, err = ReadSectorsRetry(d, 100, 32, 4)
	var de *DamagedError
	if !errors.As(err, &de) || de.Addr != 110 {
		t.Fatalf("read over damaged sector = %v, want DamagedError{110}", err)
	}
}

// failReads makes addr fail its next n reads, as a transient fault would,
// and read its old contents again after that. (The op observer runs under
// d.mu, so it may clear the damage itself.)
func failReads(d *Disk, addr, n int) {
	d.mu.Lock()
	d.damaged[addr] = true
	d.mu.Unlock()
	d.SetOpObserver(func(e OpEvent) {
		if !e.Write && !e.OK && e.Addr <= addr && addr < e.Addr+e.Sectors {
			if n--; n == 0 {
				delete(d.damaged, addr)
			}
		}
	})
}

// TestReadRetryResumesInGatherList: a scatter read that fails at a sector of
// the middle buffer resumes at that sector, so the sectors before it — in
// the first buffer and in its own — are read once, and only the failing
// sector is read again; a sector that stays damaged fails the read with its
// own DamagedError after exactly retries retries, each a read of that
// sector alone.
func TestReadRetryResumesInGatherList(t *testing.T) {
	d := newFaultDisk(t)
	want := make([]byte, 12*SectorSize)
	for i := range want {
		want[i] = byte(i*7 + i/SectorSize)
	}
	if err := d.WriteSectors(100, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	dst := gatherOf(got, 4, 4, 4)

	failReads(d, 106, 2)
	d.ResetStats()
	retried, err := ReadSectorsRetryInto(d, 100, 3, dst...)
	if err != nil || retried != 2 {
		t.Fatalf("ReadSectorsRetryInto = %d retries, %v; want 2, nil", retried, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed scatter read returned wrong data")
	}
	if st := d.Stats(); st.SectorsRead != 12+2 || st.Reads != 3 {
		t.Fatalf("%d sectors in %d reads, want 14 in 3 (each healthy sector once, the failing one 3 times)", st.SectorsRead, st.Reads)
	}

	d.SetOpObserver(nil)
	d.CorruptSectors(105, 1)
	d.ResetStats()
	retried, err = ReadSectorsRetryInto(d, 100, 3, dst...)
	var de *DamagedError
	if !errors.As(err, &de) || de.Addr != 105 || retried != 3 {
		t.Fatalf("read over a dead sector = %d retries, %v; want 3, DamagedError{105}", retried, err)
	}
	if st := d.Stats(); st.SectorsRead != 6+3 {
		t.Fatalf("%d sectors read, want 9 (the 6 up to the dead one, then it alone 3 times)", st.SectorsRead)
	}
}

// TestReadPastDamage: a read past damage — a salvage sweep chunk, a replayed
// log record — with two dead sectors lists both and zeroes them, keeps their
// neighbours, and reads every healthy sector once: each dead sector costs its
// own read and its retries, nothing more. On a halted device it returns
// ErrHalted and the dead list it was given, unchanged.
func TestReadPastDamage(t *testing.T) {
	d := newFaultDisk(t)
	const addr, n, retries = 100, 16, 2
	want := make([]byte, n*SectorSize)
	for i := range want {
		want[i] = byte(i*13 + i/SectorSize)
	}
	if err := d.WriteSectors(addr, want); err != nil {
		t.Fatal(err)
	}
	dead := []int{addr + 3, addr + 9}
	for _, a := range dead {
		d.CorruptSectors(a, 1)
		clear(want[(a-addr)*SectorSize : (a-addr+1)*SectorSize])
	}
	read := func(addr int, dst ...[]byte) error {
		_, err := ReadSectorsRetryInto(d, addr, retries, dst...)
		return err
	}
	buf := bytes.Repeat([]byte{0xEE}, n*SectorSize) // another stretch's bytes
	d.ResetStats()
	listed, err := ReadPast(addr, buf, nil, read)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 || listed[0] != dead[0] || listed[1] != dead[1] {
		t.Fatalf("listed %v, want %v", listed, dead)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("read past damage: dead sectors not zeroed or neighbours not intact")
	}
	if got, w := d.Stats().SectorsRead, n+2*retries; got != w {
		t.Fatalf("%d sectors read, want %d (each once, each dead one %d times more)", got, w, retries)
	}

	d.Halt()
	given := []int{7}
	listed, err = ReadPast(addr, buf, given, read)
	if !errors.Is(err, ErrHalted) || len(listed) != 1 || listed[0] != 7 {
		t.Fatalf("read past damage on a halted device = %v, %v; want %v, ErrHalted", listed, err, given)
	}
}
