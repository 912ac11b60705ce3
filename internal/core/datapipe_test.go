package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// The tests of the pipelined data path (DESIGN §12, "Pipelined chunks"): a
// chunk's copy runs while the disk moves the next chunk of the same call.

// pipeVolume formats the volume they run on: the paper's raw path (no data
// cache, so every chunk is a request) driven by one goroutine, so the clock
// is the test's alone.
func pipeVolume(t *testing.T) (*Volume, *disk.Disk, *sim.VirtualClock) {
	t.Helper()
	cfg := testConfig()
	cfg.DataCachePages = -1
	return newTestVolumeWith(t, cfg)
}

// pipeCost is what one call put on the clock, on the CPU and on the disk.
type pipeCost struct {
	elapsed, busy, disk time.Duration
	reqs                []disk.OpEvent // its data-region requests, in order
}

// hidden is the CPU time the call spent that the clock did not see: on this
// volume the clock moves only by disk time and visible CPU time.
func (c pipeCost) hidden() time.Duration { return c.busy - (c.elapsed - c.disk) }

// measure runs fn and returns its cost.
func measure(t *testing.T, v *Volume, d *disk.Disk, clk *sim.VirtualClock, fn func() error) pipeCost {
	t.Helper()
	var c pipeCost
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if v.lay.region(e.Addr) == regionData {
			c.reqs = append(c.reqs, e)
		}
	})
	defer d.SetOpObserver(v.observeDiskOp)
	t0, b0, d0 := clk.Now(), v.cpu.Busy(), d.Stats().BusyTime()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	c.elapsed, c.busy, c.disk = clk.Now()-t0, v.cpu.Busy()-b0, d.Stats().BusyTime()-d0
	return c
}

// readAll opens name on a fresh handle (so the first chunk carries the
// leader) and reads it whole.
func readAll(v *Volume, name string) func() error {
	return func() error {
		f, err := v.Open(name, 0)
		if err != nil {
			return err
		}
		_, err = f.ReadAll()
		return err
	}
}

func create(v *Volume, name string, data []byte) func() error {
	return func() error { _, err := v.Create(name, data); return err }
}

// copyTime is the CPU's copy of n sectors.
func copyTime(n int) time.Duration { return time.Duration(n) * sim.CostPerSectorCopy }

// TestPipelinedCopiesKeepTheirCPU (a): overlapping the copies moves them off
// the clock, not off the CPU. A 256 KB create and a 256 KB read charge
// exactly the busy time they did when every copy ran in the open — the read
// one copy per sector plus its entry into the file system (the open's and
// the read's syscall, and the open's one lookup), the create the figure
// pinned when the copies were serial.
func TestPipelinedCopiesKeepTheirCPU(t *testing.T) {
	v, d, clk := pipeVolume(t)
	const pages = 512
	c := measure(t, v, d, clk, create(v, "pipe/big", payload(pages*disk.SectorSize, 1)))
	if want := time.Duration(100_350_000); c.busy != want {
		t.Errorf("256 KB create: CPU busy %v, want %v", c.busy, want)
	}
	r := measure(t, v, d, clk, readAll(v, "pipe/big"))
	if want := 2*sim.CostSyscall + sim.CostBTreeOp + copyTime(pages); r.busy != want {
		t.Errorf("256 KB read: CPU busy %v, want %v", r.busy, want)
	}
	t.Logf("create %v busy %v hidden; read %v busy %v hidden", c.busy, c.hidden(), r.busy, r.hidden())
}

// TestPipelinedChunksWaitNoRotation (b): after a call's first request, no
// request of it waits for the platter. Each chunk is issued before the CPU
// copies the one before, so it starts at the sector where its predecessor
// ended; serial copies made every later read request wait out the rest of a
// revolution (7.07 ms of 16.7). A create, which used to copy everything before
// its first request, must still not wait now that it copies chunk by chunk.
// (A request that begins on a new cylinder, or crosses one, pays the seek's
// realignment whatever the CPU does; it is left out.)
func TestPipelinedChunksWaitNoRotation(t *testing.T) {
	v, d, clk := pipeVolume(t)
	const pages = 512
	g, secT := d.Geometry(), d.Params().SectorTime(d.Geometry())
	for _, op := range []struct {
		name string
		fn   func() error
	}{
		{"256 KB create", create(v, "pipe/big", payload(pages*disk.SectorSize, 2))},
		{"256 KB read", readAll(v, "pipe/big")},
	} {
		c := measure(t, v, d, clk, op.fn)
		if len(c.reqs) != pages/MaxTransferSectors {
			t.Fatalf("%s: %d data requests, want %d", op.name, len(c.reqs), pages/MaxTransferSectors)
		}
		checked := 0
		for i, e := range c.reqs[1:] {
			prev := c.reqs[i]
			end := prev.Addr + prev.Sectors
			if e.Addr != end {
				t.Fatalf("%s: request %d at %d, the one before ended at %d", op.name, i+1, e.Addr, end)
			}
			if g.Cylinder(e.Addr) != g.Cylinder(end-1) || g.Cylinder(e.Addr) != g.Cylinder(e.Addr+e.Sectors-1) {
				continue
			}
			checked++
			// (The sector time is the revolution divided down to whole
			// nanoseconds, so a slot can come round a few ns late.)
			if e.Rot >= secT || e.Seek != 0 {
				t.Errorf("%s: request %d waited %v for rotation (seek %v), a sector passes in %v", op.name, i+1, e.Rot, e.Seek, secT)
			}
		}
		if checked < len(c.reqs)/2 {
			t.Fatalf("%s: only %d of %d requests stay on one cylinder; the file no longer tests the chunk path", op.name, checked, len(c.reqs)-1)
		}
	}
}

// TestSingleChunkCallsKeepTheirTiming (c): a call of one chunk has nothing to
// overlap, and costs what it did before the chunks were pipelined, to the
// nanosecond — every remote-meta transfer is such a call. The figures are
// the serial data path's on a fresh volume: a 32 KB create (leader and data
// in one request), a fresh handle's 32 KB read (leader piggybacked) and an
// overwrite of the same 64 pages. The busy time of the last two is 3 ms below
// the serial path's: their open looks the newest version up in one walk of
// the name table, not two (DESIGN §13, "One walk per lookup"); the clock does
// not move, as the rotational wait before the request absorbs it.
func TestSingleChunkCallsKeepTheirTiming(t *testing.T) {
	v, d, clk := pipeVolume(t)
	const pages = MaxTransferSectors
	data := payload(pages*disk.SectorSize, 3)
	for _, op := range []struct {
		name          string
		fn            func() error
		elapsed, busy time.Duration
	}{
		{"32 KB create", create(v, "pipe/one", data), 85_417_506, 33_150_000},
		{"32 KB read", readAll(v, "pipe/one"), 56_199_998, 16_600_000},
		{"32 KB overwrite", func() error {
			f, err := v.Open("pipe/one", 0)
			if err != nil {
				return err
			}
			return f.WritePages(0, data)
		}, 49_999_998, 16_600_000},
	} {
		c := measure(t, v, d, clk, op.fn)
		if len(c.reqs) != 1 {
			t.Fatalf("%s: %d data requests, want 1", op.name, len(c.reqs))
		}
		if c.elapsed != op.elapsed || c.busy != op.busy {
			t.Errorf("%s: elapsed %d ns, busy %d ns; want %d, %d", op.name, c.elapsed, c.busy, op.elapsed, op.busy)
		}
		if c.hidden() != 0 {
			t.Errorf("%s: %v of CPU hidden with nothing to hide it under", op.name, c.hidden())
		}
	}
}

// TestShortLastChunkHidesOnlyItsTransfer (d): a copy hides under the next
// request's transfer and no more. Over a 68-page file a read's (and an
// overwrite's) 64-sector first copy sits beside a 4-sector last request, so
// only four sector times of it leave the clock; the rest of it and the last
// chunk's own copy stay visible. A create copies each chunk before writing
// it, beside the chunk before: its 4-sector copy fits under the 65-sector
// first write whole.
func TestShortLastChunkHidesOnlyItsTransfer(t *testing.T) {
	v, d, clk := pipeVolume(t)
	const pages = MaxTransferSectors + 4
	secT := d.Params().SectorTime(d.Geometry())
	data := payload(pages*disk.SectorSize, 4)
	for _, op := range []struct {
		name   string
		fn     func() error
		hidden time.Duration
	}{
		{"68-page create", create(v, "pipe/short", data), copyTime(4)},
		{"68-page read", readAll(v, "pipe/short"), 4 * secT},
		{"68-page overwrite", func() error {
			f, err := v.Open("pipe/short", 0)
			if err != nil {
				return err
			}
			return f.WritePages(0, data)
		}, 4 * secT},
	} {
		c := measure(t, v, d, clk, op.fn)
		if len(c.reqs) != 2 || c.reqs[1].Sectors != 4 {
			t.Fatalf("%s: requests %+v, want a full chunk and a 4-sector one", op.name, c.reqs)
		}
		if c.hidden() != op.hidden {
			t.Errorf("%s: %v of CPU hidden, want %v", op.name, c.hidden(), op.hidden)
		}
	}
}

// TestPipelinedCopiesUnderConcurrency: eight goroutines read and overwrite
// multi-chunk files at once, their charges summed onto one clock. The CPU
// does exactly the work it did serially — one copy per sector moved, one
// entry per call — and the clock loses to overlap only what each call's own
// later requests transferred: the time hidden is never more than that, and is
// exactly the sum of each call's copies bounded by its next transfer, however
// the calls interleave. (A copy hidden behind another client's request would
// show here as more.) Run under -race by scripts/verify.sh.
func TestPipelinedCopiesUnderConcurrency(t *testing.T) {
	v, d, clk := pipeVolume(t)
	const (
		workers = 8
		pages   = 2*MaxTransferSectors + 24 // chunks of 64, 64 and 24
		rounds  = 6
	)
	secT := d.Params().SectorTime(d.Geometry())
	files := make([]*File, workers)
	for i := range files {
		name := fmt.Sprintf("pipe/w%d", i)
		if err := create(v, name, payload(pages*disk.SectorSize, byte(i)))(); err != nil {
			t.Fatal(err)
		}
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAll(); err != nil { // verify the leader now
			t.Fatal(err)
		}
		files[i] = f
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	// What one call may hide: each chunk's copy beside the next chunk's
	// transfer, and all it may: the transfers after its first request.
	chunks := []int{MaxTransferSectors, MaxTransferSectors, 24}
	var perCall, bound time.Duration
	for k := 1; k < len(chunks); k++ {
		perCall += min(copyTime(chunks[k-1]), time.Duration(chunks[k])*secT)
		bound += time.Duration(chunks[k]) * secT
	}
	calls := workers * rounds * 2
	t0, b0, s0 := clk.Now(), v.cpu.Busy(), d.Stats()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i, f := range files {
		wg.Add(1)
		go func(i int, f *File) {
			defer wg.Done()
			buf := payload(pages*disk.SectorSize, byte(i+100))
			for r := 0; r < rounds; r++ {
				if _, err := f.ReadAll(); err != nil {
					errs <- err
					return
				}
				if err := f.WritePages(0, buf); err != nil {
					errs <- err
					return
				}
			}
		}(i, f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := d.Stats().Sub(s0)
	elapsed, busy := clk.Now()-t0, v.cpu.Busy()-b0
	if s.Writes != calls/2*len(chunks) || s.Reads != calls/2*len(chunks) {
		t.Fatalf("%d reads and %d writes, want %d of each: something besides the data path ran", s.Reads, s.Writes, calls/2*len(chunks))
	}
	if want := time.Duration(calls)*sim.CostSyscall + time.Duration(calls)*copyTime(pages); busy != want {
		t.Errorf("CPU busy %v, want %v: one entry and one copy per sector of every call", busy, want)
	}
	hidden := busy - (elapsed - s.BusyTime())
	if max := time.Duration(calls) * bound; hidden > max {
		t.Errorf("hidden %v, more than the calls' own later transfers (%v)", hidden, max)
	}
	if want := time.Duration(calls) * perCall; hidden != want {
		t.Errorf("hidden %v, want %v (%v per call)", hidden, want, perCall)
	}
}
