package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestColdPageFlushedAtThirdCrossing arranges for a name-table page to go
// cold (no further updates) while the log wraps past the third holding its
// newest images: the thirds protocol must write it home before the third is
// overwritten, or the entries on it would be lost at the next crash.
func TestColdPageFlushedAtThirdCrossing(t *testing.T) {
	v, d, _ := newTestVolume(t)
	// Grow the tree so different name ranges live on different leaves.
	for i := 0; i < 120; i++ {
		if _, err := v.Create(fmt.Sprintf("mmm/seed%03d", i), payload(40, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The cold range: created once, then never touched again.
	cold := map[string][]byte{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("aaa/cold%02d", i)
		data := payload(120+i, byte(i))
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		cold[name] = data
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	// Churn a distant range until the log wraps several times.
	for i := 0; i < 400; i++ {
		if _, err := v.Create(fmt.Sprintf("zzz/hot%04d", i), payload(60, byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	ls := v.Log().Stats()
	if ls.ThirdCrossings < 3 {
		t.Fatalf("only %d third crossings; test needs the log to wrap", ls.ThirdCrossings)
	}
	if ls.HomeFlushes == 0 {
		t.Fatal("no home flushes despite wrapping: cold pages were never written home")
	}
	// Crash: the cold entries' images are long gone from the log; they
	// must survive via their flushed home pages.
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range cold {
		f, err := v2.Open(name, 0)
		if err != nil {
			t.Fatalf("cold file %s lost after wrap: %v", name, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("cold file %s corrupted: %v", name, err)
		}
	}
}

func TestAccessorsAndDropCaches(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if v.CPU() == nil || v.Disk() != d {
		t.Fatal("accessors wrong")
	}
	if _, err := v.Create("acc/a", payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	cs := v.Stats().Cache
	if cs.Hits == 0 && cs.Misses == 0 {
		t.Fatal("cache stats all zero after activity")
	}
	nt, lg := v.ModelInfo()
	if nt < 0 || lg < 0 {
		t.Fatal("ModelInfo negative")
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	// Everything still readable cold.
	f, err := v.Open("acc/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Ops.Creates != 1 {
		t.Fatalf("ops: %+v", v.Stats().Ops)
	}
}

func TestClassString(t *testing.T) {
	if Local.String() != "local" || SymLink.String() != "symlink" || Cached.String() != "cached" {
		t.Fatal("Class strings wrong")
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class empty")
	}
}

// newTestVolumeWith formats a small test volume with a custom config.
func newTestVolumeWith(t testing.TB, cfg Config) (*Volume, *disk.Disk, *sim.VirtualClock) {
	t.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return v, d, clk
}

// TestHomeWriteOrderDeterministic: two single-driver runs of one seeded
// workload cost exactly the same simulated time and the same device
// activity. Home writes driven from maps (third flushes, shutdown, cache
// drops, pending leaders, leader redo) go out in ascending address order;
// in Go map order the arm's path, and with it the virtual clock, differed
// from run to run.
func TestHomeWriteOrderDeterministic(t *testing.T) {
	run := func() (time.Duration, disk.Stats) {
		v, d, clk := newTestVolume(t)
		churn(t, v, rand.New(rand.NewSource(9)))
		for i := 0; i < 40; i++ { // empty files: their leaders stay pending
			if _, err := v.Create(fmt.Sprintf("pend/p%02d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		churn(t, v, rand.New(rand.NewSource(10)))
		v.Crash()
		d.Revive()
		v2, _, err := Mount(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := v2.Create(fmt.Sprintf("pend/q%02d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := v2.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return clk.Now(), d.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("two runs of one seed differ:\n%v %+v\n%v %+v", t1, s1, t2, s2)
	}
}
