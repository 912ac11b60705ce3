package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
)

// streamFile writes data as a new file the streaming way — Create(nil), then
// an offset writer chunk by chunk, extending as it goes — and forces it.
func streamFile(tb testing.TB, v *Volume, name string, data []byte, chunk int) *File {
	tb.Helper()
	f, err := v.Create(name, nil)
	if err != nil {
		tb.Fatal(err)
	}
	w := io.NewOffsetWriter(f, 0)
	for off := 0; off < len(data); off += chunk {
		if _, err := w.Write(data[off:min(off+chunk, len(data))]); err != nil {
			tb.Fatalf("stream %s at %d: %v", name, off, err)
		}
	}
	if err := v.Force(); err != nil {
		tb.Fatal(err)
	}
	return f
}

// dataReads records the volume's data-region read requests from here on; the
// volume's own observer keeps running underneath.
func dataReads(v *Volume, d *disk.Disk) *[]disk.OpEvent {
	var ops []disk.OpEvent
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if !e.Write && v.lay.region(e.Addr) == regionData {
			ops = append(ops, e)
		}
	})
	return &ops
}

const chunk32K = 64 * disk.SectorSize

// TestStreamedReadShape: a sequential 32 KB-chunk read of a streamed 256 KB
// file is a request per chunk-plus-window, not per chunk, each further up the
// disk than the last, and together they read every sector once.
func TestStreamedReadShape(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			cfg := testConfig()
			cfg.AsyncApply = async
			v, d, _ := newTestVolumeWith(t, cfg)
			want := scrambled(8*chunk32K, 1)
			streamFile(t, v, "stream/f", want, chunk32K)
			if err := v.DropCaches(); err != nil {
				t.Fatal(err)
			}
			f, err := v.Open("stream/f", 0)
			if err != nil {
				t.Fatal(err)
			}
			if runs := f.Entry().Runs; len(runs) != 2 || runs[0].Len != 1 || int(runs[1].Len) != len(want)/disk.SectorSize {
				t.Fatalf("streamed file has runs %v; want its leader's and one data run", runs)
			}
			ops := dataReads(v, d)
			got := make([]byte, len(want))
			for off := 0; off < len(want); off += chunk32K {
				if _, err := f.ReadAt(got[off:off+chunk32K], int64(off)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatal("sequential read returned other bytes than were streamed")
			}
			sectors := len(want) / disk.SectorSize
			per := MaxTransferSectors + v.cfg.readAhead()
			if max := (sectors+per-1)/per + 1; len(*ops) > max {
				t.Errorf("%d data reads for %d sectors, want at most %d", len(*ops), sectors, max)
			}
			read := 0
			for i, e := range *ops {
				if i > 0 && e.Addr <= (*ops)[i-1].Addr {
					t.Errorf("read %d at sector %d is not above read %d at %d", i, e.Addr, i-1, (*ops)[i-1].Addr)
				}
				read += e.Sectors
			}
			if read != sectors {
				t.Errorf("%d sectors read from the disk for a file of %d", read, sectors)
			}
			dc := v.Stats().Cache.Data
			if dc.ReadAheadSectors == 0 || dc.ReadAheadUsed != dc.ReadAheadSectors || dc.ReadAheadWasted != 0 {
				t.Errorf("read-ahead %d sectors, used %d, wasted %d; want all of it used", dc.ReadAheadSectors, dc.ReadAheadUsed, dc.ReadAheadWasted)
			}
		})
	}
}

// TestReadAheadPaysBetweenReaders: two readers taking turns, chunk by chunk,
// each on its own streamed file, move the arm away from each other's next
// sector every time, so a request costs a seek and a rotational wait whatever
// it carries. With read-ahead each reader issues a third of the requests, and
// the pair finishes sooner on the sim clock by more than a tenth.
func TestReadAheadPaysBetweenReaders(t *testing.T) {
	run := func(readAhead int) (requests int, elapsed, waited time.Duration) {
		cfg := testConfig()
		cfg.ReadAhead = readAhead
		v, d, clk := newTestVolumeWith(t, cfg)
		const size = 12 * chunk32K
		streamFile(t, v, "pair/a", scrambled(size, 1), chunk32K)
		streamFile(t, v, "pair/b", scrambled(size, 2), chunk32K)
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		var files [2]*File
		for i, name := range []string{"pair/a", "pair/b"} {
			var err error
			if files[i], err = v.Open(name, 0); err != nil {
				t.Fatal(err)
			}
		}
		ops := dataReads(v, d)
		start := clk.Now()
		buf := make([]byte, chunk32K)
		for off := 0; off < size; off += chunk32K {
			for _, f := range files {
				if _, err := f.ReadAt(buf, int64(off)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range *ops {
			waited += e.Seek + e.Rot
		}
		return len(*ops), clk.Now() - start, waited
	}
	reqAhead, timeAhead, waitAhead := run(0)
	reqPlain, timePlain, waitPlain := run(-1)
	t.Logf("read-ahead: %d requests, %v, %v seeking and waiting; without: %d requests, %v, %v", reqAhead, timeAhead, waitAhead, reqPlain, timePlain, waitPlain)
	if reqAhead*3 > reqPlain {
		t.Errorf("%d requests with read-ahead, %d without; want a third", reqAhead, reqPlain)
	}
	if timeAhead*10 > timePlain*9 {
		t.Errorf("the readers took %v with read-ahead, %v without; want a tenth less", timeAhead, timePlain)
	}
}

// TestReadAheadHidesItsOwnCopy: a request that carries read-ahead moves the
// demand chunk first and the window behind it, so the chunk's copy runs while
// the disk moves the window (DESIGN §12, "Pipelined chunks"). A fresh
// handle's 32 KB read of a streamed file hides the whole 64-sector copy under
// a full window; over a file that ends 4 sectors past the chunk, the short
// window hides only its own 4 sector times. Either way the CPU is as busy as
// on a volume that reads nothing ahead, where nothing is hidden.
func TestReadAheadHidesItsOwnCopy(t *testing.T) {
	read := func(pages, readAhead int) (pipeCost, int) {
		cfg := testConfig()
		cfg.ReadAhead = readAhead
		v, d, clk := newTestVolumeWith(t, cfg)
		streamFile(t, v, "ahead/f", scrambled(pages*disk.SectorSize, 1), chunk32K)
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		f, err := v.Open("ahead/f", 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, chunk32K)
		c := measure(t, v, d, clk, func() error { _, err := f.ReadAt(buf, 0); return err })
		if len(c.reqs) != 1 {
			t.Fatalf("%d-page file: %d data requests, want 1", pages, len(c.reqs))
		}
		return c, v.Stats().Cache.Data.ReadAheadSectors
	}
	secT := disk.DefaultParams.SectorTime(disk.SmallGeometry)
	for _, tc := range []struct {
		name   string
		pages  int
		ahead  int // sectors the request reads ahead
		hidden time.Duration
	}{
		{"full window", 8 * MaxTransferSectors, streamWindow, copyTime(MaxTransferSectors)},
		{"4-sector window", MaxTransferSectors + 4, 4, 4 * secT},
	} {
		c, ahead := read(tc.pages, 0)
		plain, none := read(tc.pages, -1)
		if none != 0 || plain.hidden() != 0 {
			t.Fatalf("%s: without read-ahead %d sectors read ahead and %v hidden", tc.name, none, plain.hidden())
		}
		if ahead != tc.ahead {
			t.Fatalf("%s: %d sectors read ahead, want %d", tc.name, ahead, tc.ahead)
		}
		if c.hidden() != tc.hidden {
			t.Errorf("%s: %v of the copy hidden under %d sectors read ahead, want %v", tc.name, c.hidden(), ahead, tc.hidden)
		}
		if c.busy != plain.busy {
			t.Errorf("%s: CPU busy %v with read-ahead, %v without", tc.name, c.busy, plain.busy)
		}
	}
}

// TestRandomReadsDoNotReadAhead: 4 KB reads at random offsets — a fresh
// handle's read of the first 4 KB among them — are no stream: each costs one
// request for the sectors it asked for.
func TestRandomReadsDoNotReadAhead(t *testing.T) {
	v, d, _ := newTestVolume(t)
	want := scrambled(8*chunk32K, 2)
	streamFile(t, v, "rand/f", want, chunk32K)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ops := dataReads(v, d)
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 4096)
	offs := []int{0}
	for i := 0; i < 40; i++ {
		// Odd multiples of 4 KB, so that no read starts where another ended.
		offs = append(offs, (2*rng.Intn(len(want)/8192)+1)*4096)
	}
	for i, off := range offs {
		f, err := v.Open("rand/f", 0)
		if err != nil {
			t.Fatal(err)
		}
		before := len(*ops)
		if _, err := f.ReadAt(buf, int64(off)); err != nil || !bytes.Equal(buf, want[off:off+4096]) {
			t.Fatalf("read %d at %d: %v", i, off, err)
		}
		for _, e := range (*ops)[before:] {
			if e.Sectors != 8 {
				t.Errorf("4 KB read at %d issued a request for %d sectors", off, e.Sectors)
			}
		}
	}
	if ra := v.Stats().Cache.Data.ReadAheadSectors; ra != 0 {
		t.Errorf("random reads read %d sectors ahead", ra)
	}
}

// TestReadAheadStaysInsideItsStretch: two files streamed by turns take the
// pages behind each other, so each is a table of separate runs; a sequential
// read of one of them never asks the disk for a sector of the other — a
// request ends where the physically contiguous stretch does.
func TestReadAheadStaysInsideItsStretch(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := [2][]byte{scrambled(6*chunk32K, 4), scrambled(6*chunk32K, 5)}
	var files [2]*File
	var writers [2]*io.OffsetWriter
	for i := range files {
		f, err := v.Create(fmt.Sprintf("turns/f%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		files[i], writers[i] = f, io.NewOffsetWriter(f, 0)
	}
	for off := 0; off < len(data[0]); off += chunk32K {
		for i, w := range writers {
			if _, err := w.Write(data[i][off : off+chunk32K]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		runs := f.Entry().Runs
		if len(runs) < 4 {
			t.Fatalf("file %d has runs %v; the turns were meant to fragment it", i, runs)
		}
		for k := 2; k < len(runs); k++ {
			if runs[k].Start <= runs[k-1].Start {
				t.Errorf("file %d: run %d at %d is not above run %d at %d", i, k, runs[k].Start, k-1, runs[k-1].Start)
			}
		}
		ops := dataReads(v, d)
		got := make([]byte, len(data[i]))
		for off := 0; off < len(got); off += chunk32K {
			if _, err := f.ReadAt(got[off:off+chunk32K], int64(off)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, data[i]) {
			t.Fatalf("file %d read back other bytes than were streamed", i)
		}
		for _, e := range *ops {
			inside := false
			for _, r := range runs[1:] {
				inside = inside || e.Addr >= int(r.Start) && e.Addr+e.Sectors <= int(r.Start+r.Len)
			}
			if !inside {
				t.Errorf("file %d: request [%d,%d) leaves the file's runs %v", i, e.Addr, e.Addr+e.Sectors, runs)
			}
		}
	}
}

// TestStreamFillRacedByWrite: a write that lands while a stream fill's disk
// request is in flight bumps the cache generation, and the fill — the chunk
// and everything read ahead with it — installs nothing: the frames it was
// lent go back, and the next read fetches the new bytes.
func TestStreamFillRacedByWrite(t *testing.T) {
	v, d, _ := newTestVolume(t)
	want := scrambled(4*chunk32K, 6)
	streamFile(t, v, "race/f", want, chunk32K)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open("race/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The writer's half, from inside the reader's disk request (the observer
	// may touch the cache, as the damage observer does): by the time the
	// request returns, some write-through update has gone by.
	raced := 0
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if !e.Write && v.lay.region(e.Addr) == regionData {
			raced++
			v.dataCache.Update(e.Addr+e.Sectors-1, make([]byte, disk.SectorSize))
		}
	})
	got := make([]byte, chunk32K)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want[:chunk32K]) {
		t.Fatalf("raced read: %v", err)
	}
	d.SetOpObserver(v.observeDiskOp)
	dc := v.Stats().Cache.Data
	if raced != 1 || dc.ReadAheadSectors == 0 {
		t.Fatalf("%d requests, %d sectors read ahead; want one stream fill to race", raced, dc.ReadAheadSectors)
	}
	if dc.Size != 0 {
		t.Fatalf("a fill raced by a write left %d frames resident", dc.Size)
	}
	// Every lent frame came back: the cache still fills to its capacity.
	next := scrambled(len(want), 7)
	if err := f.WritePages(0, next); err != nil {
		t.Fatal(err)
	}
	all := make([]byte, len(want))
	if _, err := f.ReadAt(all, 0); err != nil || !bytes.Equal(all, next) {
		t.Fatalf("read after the write returned stale bytes: %v", err)
	}
	if dc := v.Stats().Cache.Data; dc.Size != len(want)/disk.SectorSize {
		t.Fatalf("%d frames resident after reading %d sectors", dc.Size, len(want)/disk.SectorSize)
	}
}

// TestReadAheadAllocs: a sequential reader's misses — every one a request
// that reads a window ahead into lent frames — and the hits between them
// allocate nothing.
func TestReadAheadAllocs(t *testing.T) {
	v, _, _ := newTestVolume(t)
	const chunks = 120
	f := streamFile(t, v, "allocs/f", make([]byte, chunks*chunk32K), chunk32K)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk32K)
	next := 0
	read := func() {
		if _, err := f.ReadAt(buf, int64(next)*chunk32K); err != nil {
			t.Fatal(err)
		}
		next++
	}
	read() // verifies the leader
	before := v.Stats()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("sequential 32 KB read with read-ahead: %v allocs, want 0", n)
	}
	after := v.Stats()
	ios := after.Disk.Reads - before.Disk.Reads
	ahead := after.Cache.Data.ReadAheadSectors - before.Cache.Data.ReadAheadSectors
	if ios < 30 || ahead != ios*v.cfg.readAhead() {
		t.Fatalf("%d requests read %d sectors ahead; the gate measures read-ahead I/Os", ios, ahead)
	}
}

// BenchmarkStream256K is one streamed write of a 256 KB file — Create(nil),
// eight 32 KB stream writes, each extending the file in place — and one
// sequential read of it in 32 KB chunks from a cold cache: the data path of
// fsdbench's remote-data below the wire.
func BenchmarkStream256K(b *testing.B) {
	v, _, _ := newTestVolumeWith(b, testConfig())
	data := scrambled(8*chunk32K, 8)
	buf := make([]byte, chunk32K)
	b.SetBytes(2 * int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench/f%d", i%8)
		streamFile(b, v, name, data, chunk32K)
		v.dataCache.DropAll()
		f, err := v.Open(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(data); off += chunk32K {
			if _, err := f.ReadAt(buf, int64(off)); err != nil {
				b.Fatal(err)
			}
		}
		if err := v.Delete(name, 0); err != nil {
			b.Fatal(err)
		}
	}
}
