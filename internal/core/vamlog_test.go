package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

func vamLogConfig() Config {
	c := testConfig()
	c.LogVAM = true
	return c
}

func newVAMLogVolume(t *testing.T) (*Volume, *disk.Disk, *sim.VirtualClock) {
	t.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(d, vamLogConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return v, d, clk
}

func TestVAMLogBasicOps(t *testing.T) {
	v, _, _ := newVAMLogVolume(t)
	data := payload(1500, 3)
	if _, err := v.Create("vl/a", data); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open("vl/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	if err := v.Delete("vl/a", 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestVAMLogCrashRecoverySkipsScan(t *testing.T) {
	v, d, _ := newVAMLogVolume(t)
	for i := 0; i < 60; i++ {
		if _, err := v.Create(fmt.Sprintf("vl/f%03d", i), payload(300+i*11, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i += 4 {
		if err := v.Delete(fmt.Sprintf("vl/f%03d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	// The deletes' shadow merge happened in the commit callback; their
	// VAM deltas ride the next force.
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	want := v.VAM().FreeCount()
	v.Crash()
	d.Revive()
	v2, ms, err := Mount(d, testConfig()) // mode comes from the root page
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if ms.VAMReconstructed {
		t.Fatal("VAM logging did not skip reconstruction")
	}
	if got := v2.VAM().FreeCount(); got != want {
		t.Fatalf("recovered FreeCount %d != committed %d", got, want)
	}
	// All surviving files intact.
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("vl/f%03d", i)
		_, err := v2.Open(name, 0)
		if i%4 == 0 {
			if err == nil {
				t.Fatalf("deleted %s resurrected", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s lost: %v", name, err)
		}
	}
	// And the recovered map is safe: new creates don't collide.
	for i := 0; i < 20; i++ {
		if _, err := v2.Create(fmt.Sprintf("vl/new%02d", i), payload(400, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 60; i++ {
		if i%4 == 0 {
			continue
		}
		f, err := v2.Open(fmt.Sprintf("vl/f%03d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, payload(300+i*11, byte(i))) {
			t.Fatalf("old file overwritten by post-recovery allocation: %v", err)
		}
	}
}

func TestVAMLogRecoveryNeverUnderCounts(t *testing.T) {
	// Crash right after a force whose commit callback merged shadows but
	// before the deltas' own force: the recovered map may over-count
	// allocations (leak) but must never mark live pages free.
	v, d, _ := newVAMLogVolume(t)
	f, err := v.Create("vl/live", payload(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if err := v.Delete("vl/live", 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil { // commit merges shadow after the record
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The delete committed, so the file is gone; its pages may or may
	// not be reusable yet (the delta may have ridden the next force),
	// but no page of any OTHER file may be marked free.
	e := f.Entry()
	for _, r := range e.Runs {
		_ = r // leak allowed; nothing to assert per-page here
	}
	// Safety check by construction: fill the volume with creates and
	// verify nothing collides.
	seen := map[uint32]string{}
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("vl/fill%02d", i)
		g, err := v2.Create(name, payload(600, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		ge := g.Entry()
		for _, r := range ge.Runs {
			for p := r.Start; p < r.Start+r.Len; p++ {
				if prev, dup := seen[p]; dup {
					t.Fatalf("page %d allocated to both %s and %s", p, prev, name)
				}
				seen[p] = name
			}
		}
	}
}

func TestVAMLogFallsBackOnDamage(t *testing.T) {
	v, d, _ := newVAMLogVolume(t)
	for i := 0; i < 20; i++ {
		if _, err := v.Create(fmt.Sprintf("vl/f%02d", i), payload(200, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	v.Force()
	want := v.VAM().FreeCount()
	v.Crash()
	d.Revive()
	// Damage a save-area bitmap sector: the fast path must fall back to
	// reconstruction, not load garbage.
	d.CorruptSectors(v.lay.vamBase+1, 2)
	v2, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if !ms.VAMReconstructed {
		t.Fatal("damaged save area did not trigger reconstruction")
	}
	if got := v2.VAM().FreeCount(); got != want {
		t.Fatalf("fallback FreeCount %d != %d", got, want)
	}
}

func TestVAMLogSurvivesLogWrap(t *testing.T) {
	// Enough churn to wrap the log several times: the thirds protocol
	// must keep flushing VAM sectors home so replay reproduces the map.
	v, d, _ := newVAMLogVolume(t)
	for i := 0; i < 300; i++ {
		if _, err := v.Create(fmt.Sprintf("vl/w%04d", i), payload(500, byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := v.Delete(fmt.Sprintf("vl/w%04d", i-1), 0); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	v.Force()
	v.Force() // carry the final shadow-merge deltas
	want := v.VAM().FreeCount()
	if v.Log().Stats().ThirdCrossings == 0 {
		t.Fatal("workload did not wrap the log; test is vacuous")
	}
	v.Crash()
	d.Revive()
	v2, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ms.VAMReconstructed {
		t.Fatal("fast path not taken after wrap")
	}
	if got := v2.VAM().FreeCount(); got != want {
		t.Fatalf("FreeCount after wrapped recovery %d != %d", got, want)
	}
}

// TestVAMLogSimTimeRepeats: the same workload on a VAM-logging volume costs
// the same simulated time and the same disk activity on every run. Creating
// and deleting large files dirties several bitmap sectors in one third, and
// small-file churn then wraps the log over it, so a third crossing writes
// several logged sectors home at once — in map order they would seek
// differently from run to run.
func TestVAMLogSimTimeRepeats(t *testing.T) {
	run := func() (time.Duration, disk.Stats) {
		v, d, clk := newVAMLogVolume(t)
		force := func() {
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
		}
		churn := func(tag string) {
			for i := 0; i < 300; i++ {
				if _, err := v.Create(fmt.Sprintf("vl/%s%04d", tag, i), payload(500, byte(i))); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					if err := v.Delete(fmt.Sprintf("vl/%s%04d", tag, i-1), 0); err != nil {
						t.Fatal(err)
					}
				}
				if i%10 == 9 {
					force()
				}
			}
		}
		const big = 5
		for i := 0; i < big; i++ {
			if _, err := v.Create(fmt.Sprintf("vl/big%d", i), payload(1_500_000, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		force()
		churn("a")
		for i := 0; i < big; i++ {
			if err := v.Delete(fmt.Sprintf("vl/big%d", i), 0); err != nil {
				t.Fatal(err)
			}
		}
		force()
		force() // carry the deletes' shadow-merge deltas
		churn("b")
		if v.Log().Stats().ThirdCrossings == 0 {
			t.Fatal("workload did not wrap the log; test is vacuous")
		}
		return clk.Now(), d.Stats()
	}
	clk0, st0 := run()
	for r := 1; r < 4; r++ {
		if clk, st := run(); clk != clk0 || st != st0 {
			t.Fatalf("run %d: clock %v, disk %+v\nrun 0: clock %v, disk %+v", r, clk, st, clk0, st0)
		}
	}
}

func TestVAMLogMountOfPlainVolumeIsSafe(t *testing.T) {
	// Asking for LogVAM on a volume formatted without it must not load a
	// stale save area: the root page records the true mode.
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	v, err := Format(d, testConfig()) // plain volume
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("plain/f", payload(999, 1)); err != nil {
		t.Fatal(err)
	}
	v.Force()
	v.Crash()
	d.Revive()
	lvCfg := testConfig()
	lvCfg.LogVAM = true
	v2, ms, err := Mount(d, lvCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ms.VAMReconstructed {
		t.Fatal("plain volume mounted via the LogVAM fast path")
	}
	if _, err := v2.Open("plain/f", 0); err != nil {
		t.Fatal(err)
	}
}
