package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/disk"
	"repro/internal/sim"
)

// TestWriteAtEdgeReads: an unaligned overwrite reads the sectors it covers
// part of — at most its first and its last — and nothing else of its span,
// reads nothing at all when those sectors begin at or beyond the byte size,
// goes out as one write request, and leaves every byte around it alone.
func TestWriteAtEdgeReads(t *testing.T) {
	for _, cachePages := range []int{-1, 0} {
		v, f, want := newDataVolume(t, cachePages, 200)
		if _, err := f.ReadPages(0, 1); err != nil { // verify the leader outside the windows
			t.Fatal(err)
		}
		write := func(p []byte, off int64) disk.Stats {
			t.Helper()
			before := v.Stats().Disk
			if n, err := f.WriteAt(p, off); n != len(p) || err != nil {
				t.Fatalf("cache %d: WriteAt(%d bytes at %d) = %d, %v", cachePages, len(p), off, n, err)
			}
			return v.Stats().Disk.Sub(before)
		}
		for _, c := range []struct{ off, n, reads int }{
			{10*disk.SectorSize + 100, 40 * disk.SectorSize, 2},     // both edges partial
			{10 * disk.SectorSize, 40*disk.SectorSize + 7, 1},       // last edge only
			{10*disk.SectorSize + 100, 40*disk.SectorSize - 100, 1}, // first edge only
			{10*disk.SectorSize + 100, 200, 1},                      // inside one sector
			{10 * disk.SectorSize, 40 * disk.SectorSize, 0},         // aligned
		} {
			p := scrambled(c.n, int64(c.off+c.n))
			v.DropCaches()
			d := write(p, int64(c.off))
			copy(want[c.off:], p)
			if d.SectorsRead != c.reads || d.Reads != c.reads || d.Writes != 1 {
				t.Errorf("cache %d: WriteAt(%d bytes at %d): %d reads of %d sectors, %d writes; want %d single-sector reads, 1 write",
					cachePages, c.n, c.off, d.Reads, d.SectorsRead, d.Writes, c.reads)
			}
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cache %d: the file does not hold what was written around the overwrites (%v)", cachePages, err)
		}

		// Edges at or beyond the byte size hold nothing worth reading. (The
		// caches stay: a write that moves the byte size looks its entry up.)
		g, err := v.Create("data/tail", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Extend(64); err != nil {
			t.Fatal(err)
		}
		f = g
		head := scrambled(3*disk.SectorSize+50, 9)
		if d := write(head, 0); d.Reads != 0 {
			t.Errorf("cache %d: a write whose last sector begins at the byte size read %d times", cachePages, d.Reads)
		}
		hole := scrambled(1000, 10)
		if d := write(hole, 8*disk.SectorSize+30); d.Reads != 0 {
			t.Errorf("cache %d: a write beyond the byte size read %d times", cachePages, d.Reads)
		}
		whole := make([]byte, 8*disk.SectorSize+30+len(hole))
		copy(whole, head)
		copy(whole[8*disk.SectorSize+30:], hole)
		got = make([]byte, len(whole))
		if n, err := g.ReadAt(got, 0); n != len(whole) || !bytes.Equal(got, whole) {
			t.Fatalf("cache %d: writes past the byte size read back wrong (%d, %v): the gap must be zeroes", cachePages, n, err)
		}
	}
}

// TestWriteAtDoesNotRetainCallerBuffer: the write path lends p and data —
// poisoned the moment the call returns, they must read back intact from the
// data cache's frames and, those dropped, from the platter.
func TestWriteAtDoesNotRetainCallerBuffer(t *testing.T) {
	v, f, want := newDataVolume(t, 0, 200)
	warm := make([]byte, len(want))
	if _, err := f.ReadAt(warm, 0); err != nil { // make the frames resident
		t.Fatal(err)
	}
	for _, c := range []struct{ off, n int }{{0, 64 * disk.SectorSize}, {70*disk.SectorSize + 9, 33*disk.SectorSize + 400}, {150 * disk.SectorSize, 777}} {
		p := scrambled(c.n, int64(c.off))
		copy(want[c.off:], p)
		if _, err := f.WriteAt(p, int64(c.off)); err != nil {
			t.Fatal(err)
		}
		clear(p)
	}
	created := scrambled(5*disk.SectorSize+123, 77)
	keep := bytes.Clone(created)
	g, err := v.Create("data/created", created)
	if err != nil {
		t.Fatal(err)
	}
	clear(created)
	for _, from := range []string{"the cache", "the platter"} {
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("from %s: WriteAt kept its caller's buffer (%v)", from, err)
		}
		if got, err := g.ReadAll(); err != nil || !bytes.Equal(got, keep) {
			t.Fatalf("from %s: Create kept its caller's buffer (%v)", from, err)
		}
		v.DropCaches()
	}
}

// TestWriteAtAllocs is the write path's allocation gate, the mirror of
// TestCachedReadAtAllocs: a write inside the byte size — aligned, unaligned,
// or carrying the pending leader along — allocates nothing, whatever its
// payload, with the data cache on or off: the payload goes to the platter
// (and the frames) from the caller's buffer.
func TestWriteAtAllocs(t *testing.T) {
	for _, cachePages := range []int{-1, 0} {
		v, f, _ := newDataVolume(t, cachePages, 200)
		warm := make([]byte, 160*disk.SectorSize)
		if _, err := f.ReadAt(warm, 0); err != nil { // verify the leader, fill the cache
			t.Fatal(err)
		}
		leaderAddr, _ := f.e.LeaderAddr()
		leader := encodeLeader(&f.e)
		for _, c := range []struct {
			name      string
			off       int64
			piggyback bool
		}{
			{"aligned", 8 * disk.SectorSize, false},
			{"unaligned", 8*disk.SectorSize + 100, false},
			{"leader-piggybacked", 0, true},
		} {
			for _, n := range []int{2 * disk.SectorSize, 64 * disk.SectorSize} {
				p := scrambled(n, 5)
				write := func() {
					if c.piggyback {
						v.leaders.stage(leaderAddr, leader)
					}
					if got, err := f.WriteAt(p, c.off); got != n || err != nil {
						t.Fatalf("WriteAt: %d, %v", got, err)
					}
				}
				before := v.Stats().Disk
				allocs, size := testing.AllocsPerRun(50, write), allocgate.BytesPerRun(50, write)
				if allocs != 0 || size != 0 {
					t.Errorf("cache %d: %s WriteAt of %d bytes: %v allocs, %d B; want none", cachePages, c.name, n, allocs, size)
				}
				d := v.Stats().Disk.Sub(before)
				sectors := (int(c.off)+n+disk.SectorSize-1)/disk.SectorSize - int(c.off)/disk.SectorSize
				if c.piggyback {
					sectors++
				}
				if d.SectorsWritten != 102*sectors {
					t.Fatalf("cache %d: %s: %d sectors written in 102 calls; the gate measures writes of %d",
						cachePages, c.name, d.SectorsWritten, sectors)
				}
			}
		}
	}
}

// TestHeldWriteAtAllocs: a held write allocates nothing, as a write-through
// one does not (TestWriteAtAllocs).
func TestHeldWriteAtAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.GroupCommitInterval = time.Hour // no force ends the group under the runs
	v, _, _ := newTestVolumeWith(t, cfg)
	f, err := v.Create("h/allocs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Extend(80); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2 * disk.SectorSize, 64 * disk.SectorSize} {
		p := scrambled(n, 5)
		write := func() {
			if got, err := f.WriteAt(p, 8*disk.SectorSize); got != n || err != nil {
				t.Fatalf("WriteAt: %d, %v", got, err)
			}
		}
		allocs, size := testing.AllocsPerRun(50, write), allocgate.BytesPerRun(50, write)
		if allocs != 0 || size != 0 {
			t.Errorf("held WriteAt of %d bytes: %v allocs, %d B; want none", n, allocs, size)
		}
	}
	if v.dataCache.Stats().Held == 0 {
		t.Fatal("the writes were not held")
	}
}

// TestConcurrentWriteAtNeverShrinks: two writers on one handle, one filling
// [0, 32 K) and one [32 K, 64 K) of a pre-extended file, both acknowledged —
// the file is 64 K long afterwards, whichever size update lands last.
func TestConcurrentWriteAtNeverShrinks(t *testing.T) {
	const half = 64 * disk.SectorSize
	for _, async := range []bool{false, true} {
		d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.AsyncApply = async
		v, err := Format(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := scrambled(half, 1), scrambled(half, 2)
		for i := 0; i < 150; i++ {
			f, err := v.Create("race/file", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Extend(2 * half / disk.SectorSize); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, w := range []struct {
				p   []byte
				off int64
			}{{lo, 0}, {hi, half}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := f.WriteAt(w.p, w.off); err != nil {
						t.Errorf("WriteAt at %d: %v", w.off, err)
					}
				}()
			}
			wg.Wait()
			if got := f.Size(); got != 2*half {
				t.Fatalf("async=%v, round %d: Size() = %d after acknowledged writes up to %d", async, i, got, 2*half)
			}
			if err := v.Delete("race/file", 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

func benchWriteAt(b *testing.B, cachePages int) {
	_, f, _ := newDataVolume(b, cachePages, 512)
	buf := scrambled(64*disk.SectorSize, 1)
	chunks := (f.Pages() - 64) / 64
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%chunks)*int64(len(buf))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteAt32K: 32 KB overwrites inside the byte size, the data cache
// on — each a (simulated, free in wall time) disk transfer from the caller's
// buffer.
func BenchmarkWriteAt32K(b *testing.B) { benchWriteAt(b, 0) }

// BenchmarkCreate500B: the small-file create — leader and data in one
// transfer, the entry staged — forced every 64, on a ring of names kept to
// two versions.
func BenchmarkCreate500B(b *testing.B) {
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		b.Fatal(err)
	}
	v, err := Format(d, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("ring/%02d", i)
		if _, err := v.Create(names[i], nil); err != nil {
			b.Fatal(err)
		}
		if err := v.SetKeep(names[i], 2); err != nil {
			b.Fatal(err)
		}
	}
	data := scrambled(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Create(names[i%len(names)], data); err != nil {
			b.Fatal(err)
		}
		if i%len(names) == len(names)-1 {
			if err := v.Force(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
