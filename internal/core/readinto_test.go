package core

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// scrambled returns n bytes no two sectors of which look alike, so a sector
// delivered to the wrong place in a buffer cannot pass for the right one.
func scrambled(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// newDataVolume formats a small volume with the given DataCachePages and
// returns it with an Extend-grown file of `pages` pages holding want.
func newDataVolume(tb testing.TB, cachePages, pages int) (*Volume, *File, []byte) {
	tb.Helper()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := testConfig()
	cfg.DataCachePages = cachePages
	v, err := Format(d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := v.Create("data/file", make([]byte, disk.SectorSize))
	if err != nil {
		tb.Fatal(err)
	}
	for f.Pages() < pages {
		if err := f.Extend(8); err != nil {
			tb.Fatal(err)
		}
	}
	want := scrambled(f.Pages()*disk.SectorSize-137, 42) // the last page is partial
	if _, err := f.WriteAt(want, 0); err != nil {
		tb.Fatal(err)
	}
	if err := v.Force(); err != nil {
		tb.Fatal(err)
	}
	return v, f, want
}

// TestReadAtWindows reads windows of every alignment — inside one sector,
// across a sector edge, whole sectors, across transfer chunks, up to and
// past the end — through the cache and without it, from warm handles and
// from fresh ones (whose first read piggybacks the leader), and compares
// every byte. A sentinel around the buffer catches a read that lands
// outside its window.
func TestReadAtWindows(t *testing.T) {
	for _, cachePages := range []int{-1, 0} {
		v, _, want := newDataVolume(t, cachePages, 200)
		rng := rand.New(rand.NewSource(7))
		var f *File
		for i := 0; i < 600; i++ {
			if i%3 == 0 {
				var err error
				if f, err = v.Open("data/file", 0); err != nil {
					t.Fatal(err)
				}
			}
			if i%50 == 0 {
				v.DropCaches()
			}
			off := int64(rng.Intn(len(want)))
			if i%4 == 0 {
				off = off / disk.SectorSize * disk.SectorSize
			}
			n := 1 + rng.Intn(3*disk.SectorSize)
			switch i % 5 {
			case 1:
				n = (1 + rng.Intn(80)) * disk.SectorSize
			case 2:
				n = 1 + rng.Intn(70*disk.SectorSize)
			}
			const guard = 16
			buf := bytes.Repeat([]byte{0xA5}, n+2*guard)
			got, err := f.ReadAt(buf[guard:guard+n], off)
			exp := want[off:min(off+int64(n), int64(len(want)))]
			if got != len(exp) || (err != nil && err != io.EOF) || (err == io.EOF) != (got < n) {
				t.Fatalf("cache %d: ReadAt(%d bytes at %d) = %d, %v; want %d", cachePages, n, off, got, err, len(exp))
			}
			if !bytes.Equal(buf[guard:guard+got], exp) {
				t.Fatalf("cache %d: ReadAt(%d bytes at %d) returned the wrong bytes", cachePages, n, off)
			}
			for j := 0; j < guard; j++ {
				if buf[j] != 0xA5 || buf[guard+n+j] != 0xA5 {
					t.Fatalf("cache %d: ReadAt(%d bytes at %d) wrote outside its buffer", cachePages, n, off)
				}
			}
		}
	}
}

// TestReadAtSameRequestsAsReadPages: a byte window costs exactly the disk
// requests of the whole pages under it — landing sectors in the caller's
// buffer changed where bytes go, not what is asked of the disk.
func TestReadAtSameRequestsAsReadPages(t *testing.T) {
	for _, cachePages := range []int{-1, 0} {
		v, f, _ := newDataVolume(t, cachePages, 200)
		reads := func(read func()) (ops, sectors int) {
			v.DropCaches()
			before := v.Stats().Disk
			read()
			d := v.Stats().Disk.Sub(before)
			return d.Reads, d.SectorsRead
		}
		buf := make([]byte, 150*disk.SectorSize)
		for _, c := range []struct{ off, n int }{{700, 100}, {512, 512}, {3000, 40000}, {0, 70000}, {1000, 70000}} {
			first, last := c.off/disk.SectorSize, (c.off+c.n-1)/disk.SectorSize
			po, ps := reads(func() { f.ReadPages(first, last-first+1) })
			ao, as := reads(func() { f.ReadAt(buf[:c.n], int64(c.off)) })
			if po == 0 || ao != po || as != ps {
				t.Errorf("cache %d: %d bytes at %d: ReadAt %d requests / %d sectors, ReadPages %d / %d",
					cachePages, c.n, c.off, ao, as, po, ps)
			}
		}
	}
}

// TestCachedReadAtAllocs is the data path's allocation gate: a 32 KB read
// served by the data cache allocates nothing beyond the caller's buffer,
// aligned or not.
func TestCachedReadAtAllocs(t *testing.T) {
	v, f, _ := newDataVolume(t, 0, 160)
	buf := make([]byte, 64*disk.SectorSize)
	for _, off := range []int64{0, 8 * disk.SectorSize, 8*disk.SectorSize + 100} {
		read := func() {
			if n, err := f.ReadAt(buf, off); n != len(buf) || err != nil {
				t.Fatalf("ReadAt: %d, %v", n, err)
			}
		}
		read()
		before := v.Stats().Disk.Reads
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("cached ReadAt of 32 KB at %d: %v allocs, want 0", off, n)
		}
		if d := v.Stats().Disk.Reads - before; d != 0 {
			t.Fatalf("reads at %d went to the disk %d times; the gate measures cache hits", off, d)
		}
	}
}

func benchReadAt(b *testing.B, cachePages int) {
	v, f, _ := newDataVolume(b, cachePages, 512)
	buf := make([]byte, 64*disk.SectorSize)
	chunks := (f.Pages() - 64) / 64
	for i := 0; i < chunks; i++ { // verify the leader, warm the cache
		f.ReadAt(buf, int64(i)*int64(len(buf)))
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cachePages < 0 && i%chunks == 0 {
			v.DropCaches()
		}
		if _, err := f.ReadAt(buf, int64(i%chunks)*int64(len(buf))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAtCached: 32 KB reads served by the data cache.
func BenchmarkReadAtCached(b *testing.B) { benchReadAt(b, 2048) }

// BenchmarkReadAtUncached: 32 KB reads with the data cache off — every one
// a (simulated, free in wall time) disk transfer into the caller's buffer.
func BenchmarkReadAtUncached(b *testing.B) { benchReadAt(b, -1) }
