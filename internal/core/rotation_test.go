package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/disk"
	"repro/internal/wal"
)

// TestHomeWriteRotationalOrder: due sectors spread over the tracks of one
// cylinder — one per track, each at another angle — cost a home write at
// most one revolution of rotation plus their transfers, and strictly less
// than the same requests issued in ascending address order from the same
// clock, which waits most of a revolution between neighbouring tracks.
func TestHomeWriteRotationalOrder(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	ref, dref, _ := newTestVolumeWith(t, testConfig())
	if v.clk.Now() != ref.clk.Now() || v.lay != ref.lay {
		t.Fatal("two formats of one config differ; the comparison needs the same clock and head")
	}
	g, p := d.Geometry(), d.Params()
	cylSectors := g.SectorsPerTrack * g.TracksPerCylinder
	cyl := (v.lay.ntA + cylSectors - 1) / cylSectors // the first cylinder wholly in copy A
	if (cyl+1)*cylSectors > v.lay.ntA+v.lay.ntPages*NTPageSectors {
		t.Fatal("copy A holds no whole cylinder")
	}
	var imgs []ntImage
	for tr := 0; tr < g.TracksPerCylinder; tr++ {
		addr := cyl*cylSectors + tr*g.SectorsPerTrack + tr*11%g.SectorsPerTrack
		imgs = append(imgs, ntImage{first: uint64(addr - v.lay.ntA), data: make([]byte, disk.SectorSize)})
	}

	// rotation splits a home write's rotational wait by copy.
	rotation := func(v *Volume, d *disk.Disk, write func() error) (a, b, transferA time.Duration) {
		d.SetOpObserver(func(e disk.OpEvent) {
			if e.Addr < v.lay.ntB {
				a, transferA = a+e.Rot, transferA+e.Transfer
			} else {
				b += e.Rot
			}
		})
		defer d.SetOpObserver(v.observeDiskOp)
		if err := write(); err != nil {
			t.Fatal(err)
		}
		return a, b, transferA
	}
	rotA, rotB, xferA := rotation(v, d, func() error {
		v.cache.mu.Lock()
		defer v.cache.mu.Unlock()
		_, _, err := v.cache.writeNTHome(imgs)
		return err
	})
	ascA, ascB, _ := rotation(ref, dref, func() error {
		for _, base := range []int{ref.lay.ntA, ref.lay.ntB} {
			for _, im := range imgs {
				if err := ref.writeSectors(base+int(im.first), im.data); err != nil {
					return err
				}
			}
		}
		return nil
	})
	t.Logf("rotation: copy A %v, copy B %v; in ascending order %v and %v", rotA, rotB, ascA, ascB)
	if rotA > p.Revolution() || xferA != time.Duration(len(imgs))*p.SectorTime(g) {
		t.Fatalf("copy A's %d sectors on one cylinder waited %v for rotation (one revolution is %v) and transferred for %v",
			len(imgs), rotA, p.Revolution(), xferA)
	}
	if rotA >= ascA || rotA+rotB >= ascA+ascB {
		t.Fatalf("rotation %v + %v, not less than ascending order's %v + %v", rotA, rotB, ascA, ascB)
	}
}

// TestLeaderPassRotationalOrder is TestHomeWriteRotationalOrder's read-side
// twin: leaders spread over the tracks of one cylinder — one per track, each
// two sectors behind the last in angle — cost a check pass's leader reads
// (readLeaders) at most one revolution of rotation, where the same reads in
// ascending address order from the same clock wait most of a revolution per
// track. The images land at the refs' own indices whatever the read order.
func TestLeaderPassRotationalOrder(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	ref, dref, _ := newTestVolumeWith(t, testConfig())
	if v.clk.Now() != ref.clk.Now() || v.lay != ref.lay {
		t.Fatal("two formats of one config differ; the comparison needs the same clock and head")
	}
	g, p := d.Geometry(), d.Params()
	cylSectors := g.SectorsPerTrack * g.TracksPerCylinder
	cyl := g.Cylinders - 1
	var refs []leaderCheck
	for tr := 0; tr < g.TracksPerCylinder; tr++ {
		addr := cyl*cylSectors + tr*g.SectorsPerTrack + (g.SectorsPerTrack-2*tr%g.SectorsPerTrack)%g.SectorsPerTrack
		if v.lay.region(addr) != regionData {
			t.Fatalf("sector %d is not in the data region", addr)
		}
		img := make([]byte, disk.SectorSize)
		img[0] = byte(tr)
		for _, dd := range []*disk.Disk{d, dref} {
			if err := dd.WriteSectors(addr, img); err != nil {
				t.Fatal(err)
			}
		}
		refs = append(refs, leaderCheck{addr: addr, e: &Entry{Name: "rot"}, idx: tr})
	}
	rotation := func(v *Volume, d *disk.Disk, read func()) (rot time.Duration) {
		d.SetOpObserver(func(e disk.OpEvent) { rot += e.Rot })
		defer d.SetOpObserver(v.observeDiskOp)
		read()
		return rot
	}
	images, errs := make([][]byte, len(refs)), make([]error, len(refs))
	headOrder := rotation(v, d, func() {
		v.readLeaders(refs, images, errs, func(addr int) ([]byte, error) { return d.ReadSectors(addr, 1) })
	})
	addressOrder := rotation(ref, dref, func() {
		for _, r := range refs {
			if _, err := dref.ReadSectors(r.addr, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("rotation over %d leaders on one cylinder: head order %v, address order %v (one revolution is %v)",
		len(refs), headOrder, addressOrder, p.Revolution())
	for j := range refs {
		if errs[j] != nil || images[j][0] != byte(refs[j].idx) {
			t.Fatalf("ref %d: image for the wrong leader or none (%v)", j, errs[j])
		}
	}
	if headOrder > p.Revolution() || addressOrder < 4*p.Revolution() {
		t.Fatalf("head order waited %v for rotation, address order %v; want at most one revolution (%v) against several",
			headOrder, addressOrder, p.Revolution())
	}
}

// TestNTMissSecondCopyNoWait: on a single-threaded volume whose table is
// larger than its cache, every miss reads a page's copy A and at once its
// copy B, and copy B's skew has its first sector arrive as the seek from copy
// A ends: the copy-B read waits less than one sector time for rotation. A
// page that straddles a cylinder boundary in either copy is left out: its
// transfer settles on the next cylinder and realigns there, a wait the skew
// does not address.
func TestNTMissSecondCopyNoWait(t *testing.T) {
	v, d, _ := newTestVolume(t)
	var names []string
	for i := 0; i < 600; i++ {
		name := fmt.Sprintf("skew/d%02d/a-longish-file-name-%05d", i%13, i)
		if _, err := v.Create(name, nil); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.CacheSize = 4
	v, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pages := v.nt.AllocatedPages(); pages <= 4*cfg.CacheSize {
		t.Fatalf("the table has %d pages; it must outgrow a cache of %d", pages, cfg.CacheSize)
	}
	g, secT := d.Geometry(), d.Params().SectorTime(d.Geometry())
	straddles := func(addr int) bool { return g.Cylinder(addr) != g.Cylinder(addr+NTPageSectors-1) }
	lastA, misses, checked := -1, 0, 0
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if e.Write || e.Sectors != NTPageSectors {
			return
		}
		switch v.lay.region(e.Addr) {
		case regionNTA:
			lastA = e.Addr
		case regionNTB:
			misses++
			a := lastA
			lastA = -1
			if a < 0 || a-v.lay.ntA != e.Addr-v.lay.ntB {
				t.Errorf("copy-B read at %d did not follow its page's copy-A read (last copy-A read %d)", e.Addr, a)
				return
			}
			if straddles(a) || straddles(e.Addr) {
				return
			}
			checked++
			if e.Rot >= secT {
				t.Errorf("page %d: copy-B read waited %v for rotation, a sector passes in %v", (a-v.lay.ntA)/NTPageSectors, e.Rot, secT)
			}
		}
	})
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 400; i++ {
		if _, err := v.Open(names[rng.Intn(len(names))], 0); err != nil {
			t.Fatal(err)
		}
	}
	d.SetOpObserver(v.observeDiskOp)
	t.Logf("%d misses, %d checked", misses, checked)
	if misses < 200 || checked < misses*9/10 {
		t.Fatalf("%d misses, %d of them inside one cylinder in both copies: the workload no longer tests the miss path", misses, checked)
	}
}

// homeWriteSweep sets up a third-crossing flush of n due sectors scattered
// over pages a fresh table does not use, as the log would list them
// (Log.Due), and returns the call that flushes them.
func homeWriteSweep(tb testing.TB, n int) (*Volume, func() error) {
	v, _, _ := newTestVolumeWith(tb, testConfig())
	img := bytes.Repeat([]byte{0xA5}, disk.SectorSize)
	var due []wal.PageImage
	seen := map[uint64]bool{}
	rng := rand.New(rand.NewSource(27))
	for len(due) < n {
		target := uint64(16+rng.Intn(v.lay.ntPages-16))*NTPageSectors + uint64(rng.Intn(NTPageSectors))
		if !seen[target] {
			seen[target] = true
			due = append(due, wal.PageImage{Kind: wal.KindNameTable, Target: target, Data: img})
		}
	}
	return v, func() error {
		_, err := v.cache.flushThird(due)
		return err
	}
}

// TestHomeWriteSweepAllocs: a warm third-crossing flush allocates nothing —
// the requests are ordered in the cache's reused scratch and each merged
// one is assembled in its reused run buffer as it is issued.
func TestHomeWriteSweepAllocs(t *testing.T) {
	if allocgate.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, flush := homeWriteSweep(t, 64)
	run := func() {
		if err := flush(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs, size := testing.AllocsPerRun(50, run), allocgate.BytesPerRun(50, run); allocs != 0 || size != 0 {
		t.Fatalf("a flush of 64 due sectors allocated %.1f objects, %d bytes", allocs, size)
	}
}

// BenchmarkHomeWriteSweep is one third-crossing flush of 64 scattered due
// sectors: sim-ms/flush is its simulated device time, rot-ms/req the
// rotational wait per request it issued.
func BenchmarkHomeWriteSweep(b *testing.B) {
	v, flush := homeWriteSweep(b, 64)
	before, ops := v.d.Stats(), v.cache.stats().HomeWriteOps
	start := v.clk.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flush(); err != nil {
			b.Fatal(err)
		}
	}
	paid, reqs := v.d.Stats().Sub(before), v.cache.stats().HomeWriteOps-ops
	b.ReportMetric(float64(v.clk.Now()-start)/float64(time.Millisecond)/float64(b.N), "sim-ms/flush")
	b.ReportMetric(float64(paid.RotTime)/float64(time.Millisecond)/float64(reqs), "rot-ms/req")
}
