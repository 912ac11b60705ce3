package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// newCrashedVolume formats a volume, runs a few committed and one
// uncommitted update, and crashes it.
func newCrashedVolume(t *testing.T) (*disk.Disk, Config, map[string][]byte) {
	t.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.GroupCommitInterval = time.Hour
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"ro/a":     payload(900, 1),
		"ro/b":     payload(2100, 2),
		"ro/empty": nil,
	}
	for name, data := range want {
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	// One uncommitted create; it may or may not survive, so keep it out of
	// the expectation map.
	if _, err := v.Create("ro/uncommitted", payload(300, 3)); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	return d, cfg, want
}

func TestMountReadOnlyServesCommittedState(t *testing.T) {
	d, cfg, want := newCrashedVolume(t)
	before := d.Stats().SectorsWritten

	v, ms, err := Mount(d, cfg, ReadOnly())
	if err != nil {
		t.Fatalf("read-only mount: %v", err)
	}
	if !ms.ReadOnly || !v.ReadOnly() {
		t.Fatal("read-only mount not flagged")
	}
	if ms.LogUnavailable {
		t.Fatal("log is intact, LogUnavailable set")
	}
	if ms.LogRecords == 0 {
		t.Fatal("no log records replayed in memory")
	}
	// The committed files are all there — served through the in-memory
	// replay overlay, because nothing was flushed home before the crash.
	for name, data := range want {
		f, err := v.Open(name, 1)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	// A read-only mount writes NOTHING, ever.
	if after := d.Stats().SectorsWritten; after != before {
		t.Fatalf("read-only mount wrote %d sectors", after-before)
	}

	// Every mutation is refused.
	if _, err := v.Create("x", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create on read-only volume: %v", err)
	}
	if err := v.Delete("ro/a", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete: %v", err)
	}
	if err := v.Touch("ro/a", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("touch: %v", err)
	}
	if err := v.Force(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("force: %v", err)
	}
	if err := v.WaitCommitted(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("wait: %v", err)
	}
	if _, err := v.Scrub(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("scrub: %v", err)
	}
	if err := v.Tick(); err != nil {
		t.Fatalf("tick must be a harmless no-op: %v", err)
	}

	// Verify works and is clean.
	vs, err := v.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(vs.Problems) != 0 {
		t.Fatalf("verify problems on read-only mount: %v", vs.Problems)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if after := d.Stats().SectorsWritten; after != before {
		t.Fatalf("read-only shutdown wrote %d sectors", after-before)
	}

	// The platter is untouched, so a normal writable mount still performs
	// its own full recovery afterwards.
	v2, ms2, err := Mount(d, cfg)
	if err != nil {
		t.Fatalf("writable mount after read-only: %v", err)
	}
	if ms2.ReadOnly {
		t.Fatal("writable mount flagged read-only")
	}
	for name, data := range want {
		f, err := v2.Open(name, 1)
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reread %s: %v", name, err)
		}
	}
}

func TestMountReadOnlyDegradesWhenLogLost(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("flushed", payload(700, 9)); err != nil {
		t.Fatal(err)
	}
	// Shutdown flushes everything home; the home state alone carries the
	// file.
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Now both log anchor copies rot. A writable mount cannot recover.
	lay, err := computeLayout(d.Geometry(), d.Params(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(lay.logBase, 1)
	d.CorruptSectors(lay.logBase+2, 1)
	if _, _, err := Mount(d, cfg); err == nil {
		t.Fatal("writable mount with both anchors lost must fail")
	}

	rv, ms, err := Mount(d, cfg, ReadOnly())
	if err != nil {
		t.Fatalf("read-only mount with dead log: %v", err)
	}
	if !ms.LogUnavailable {
		t.Fatal("LogUnavailable not reported")
	}
	f, err := rv.Open("flushed", 1)
	if err != nil {
		t.Fatalf("open from home state: %v", err)
	}
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, payload(700, 9)) {
		t.Fatalf("stale home read: %v", err)
	}
}

func TestMountOrSalvageReadOnlyRung(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("keep", payload(500, 4)); err != nil {
		t.Fatal(err)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	lay, err := computeLayout(d.Geometry(), d.Params(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(lay.logBase, 1)
	d.CorruptSectors(lay.logBase+2, 1)

	mv, ms, err := Mount(d, cfg, AllowSalvage())
	if err != nil {
		t.Fatalf("mount with AllowSalvage: %v", err)
	}
	if ms.Salvage != nil {
		t.Fatal("salvage ran although the read-only rung suffices")
	}
	if !ms.ReadOnly {
		t.Fatal("read-only rung not reported")
	}
	if _, err := mv.Open("keep", 1); err != nil {
		t.Fatalf("file lost on the read-only rung: %v", err)
	}
}
