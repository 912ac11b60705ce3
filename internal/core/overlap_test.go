package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Two actors, two timelines (DESIGN §17): the tests that hold the check
// passes to reading stretch i+1 while the pool checks stretch i.

// sweepIntervals lists the start address and sector count of every checkpoint
// interval of a sweep of lay from its first data sector.
func sweepIntervals(lay layout) (starts, sectors []int) {
	cur := sweepCursor{lay: lay, addr: lay.dataLo}
	for c := 0; ; c++ {
		ch, ok := cur.next()
		if !ok {
			return starts, sectors
		}
		if c%sweepCheckpointChunks == 0 {
			starts, sectors = append(starts, ch.addr), append(sectors, 0)
		}
		sectors[len(sectors)-1] += ch.n
	}
}

// intervalOf maps a data-region address to the index of its interval.
func intervalOf(starts []int, addr int) int {
	i := 0
	for i+1 < len(starts) && addr >= starts[i+1] {
		i++
	}
	return i
}

// sweepRun sets up a salvage of d at the given width, ready to sweep, with
// observe chained behind the volume's own op observer (which newVolume
// installs, so a test's has to go on after it).
func sweepRun(t *testing.T, d *disk.Disk, workers int, observe func(disk.OpEvent)) (*salvageRun, *SalvageStats) {
	t.Helper()
	cfg := testConfig()
	cfg.CheckWorkers = workers
	st := new(SalvageStats)
	r, err := newSalvageRun(d, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	d.SetOpObserver(func(e disk.OpEvent) {
		r.v.observeDiskOp(e)
		observe(e)
	})
	return r, st
}

// readWatch follows a sweep from the device's side: seen[k] closes when the
// first read of interval k completes, while the driver still has the rest of
// the interval to read.
type readWatch struct {
	starts []int
	seen   []chan struct{}
	next   int
}

func newReadWatch(starts []int) *readWatch {
	w := &readWatch{starts: starts, seen: make([]chan struct{}, len(starts))}
	for i := range w.seen {
		w.seen[i] = make(chan struct{})
	}
	return w
}

// note is called from the op observer, so from the sweep's one reader.
func (w *readWatch) note(addr int) {
	for k := intervalOf(w.starts, addr); w.next <= k; w.next++ {
		close(w.seen[w.next])
	}
}

// TestSweepOverlapsDecode: the salvage sweep reads interval i+1 while the
// pool decodes interval i — observed, not computed: every chunk function of
// interval i waits until the device has begun on interval i+1 — and merges
// (so checkpoints) interval i only then. The reads stay one ascending sweep,
// and the sweep costs about the larger of arm and pool per interval, strictly
// less than their sum, at widths 1, 2 and 8.
func TestSweepOverlapsDecode(t *testing.T) {
	v, d := spreadImage(t, testConfig(), 240)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)
	lay := v.lay
	starts, sectors := sweepIntervals(lay)
	if len(starts) < 8 {
		t.Fatalf("only %d intervals: the image is too small to show a pipeline", len(starts))
	}
	for _, workers := range []int{1, 2, 8} {
		dc := cloneDisk(d)
		watch := newReadWatch(starts)
		var reads []int             // data-region reads, in issue order
		var readsAtCheckpoint []int // len(reads) at every checkpoint write
		arm := make([]time.Duration, len(starts))
		r, st := sweepRun(t, dc, workers, func(e disk.OpEvent) {
			switch {
			case !e.Write && lay.region(e.Addr) == regionData:
				reads = append(reads, e.Addr)
				arm[intervalOf(starts, e.Addr)] += e.Elapsed()
				watch.note(e.Addr)
			case e.Write && e.Addr == lay.logBase+salvageCkA:
				readsAtCheckpoint = append(readsAtCheckpoint, len(reads))
			}
		})
		var late atomic.Int32
		r.onScan = func(i int) {
			if i+1 == len(starts) {
				return
			}
			select {
			case <-watch.seen[i+1]:
			case <-time.After(10 * time.Second):
				late.Add(1)
			}
		}
		if err := r.sweep(lay.dataLo); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if late.Load() != 0 {
			t.Fatalf("workers=%d: %d chunk functions finished waiting before the next interval's read began: the sweep is not overlapped", workers, late.Load())
		}
		for i := 1; i < len(reads); i++ {
			if reads[i] <= reads[i-1] {
				t.Fatalf("workers=%d: data-region read %d at sector %d follows sector %d", workers, i, reads[i], reads[i-1])
			}
		}
		// Checkpoint 0 precedes the sweep; checkpoint i+1 covers interval i
		// and is written once interval i+1 has been read (the tail's follows
		// the last read).
		chunksThrough := func(k int) int {
			n := 0
			for _, s := range sectors[:min(k+1, len(sectors))] {
				n += (s + MaxTransferSectors - 1) / MaxTransferSectors
			}
			return n
		}
		if readsAtCheckpoint[0] != 0 {
			t.Fatalf("workers=%d: %d reads before the first checkpoint", workers, readsAtCheckpoint[0])
		}
		for i := 0; i+1 < len(starts); i++ {
			if got, want := readsAtCheckpoint[i+1], chunksThrough(i+1); got != want {
				t.Fatalf("workers=%d: checkpoint of interval %d written after %d reads, want %d (interval %d read first)", workers, i, got, want, i+1)
			}
		}

		// The clock: interval i's pool share runs beside the read of i+1.
		k := time.Duration(workers)
		var want, longest time.Duration
		total := 0
		for _, s := range sectors {
			total += s
		}
		for i := range starts {
			pool := st.SweepCPU * time.Duration(sectors[i]) / time.Duration(total) / k
			next := time.Duration(0)
			if i+1 < len(starts) {
				next = arm[i+1]
			}
			want += max(next, pool)
			longest = max(longest, next, pool)
		}
		want += st.SweepArm // the first read and the checkpoint writes overlap nothing...
		for _, a := range arm[1:] {
			want -= a // ...the other reads are counted above
		}
		if diff := st.SweepElapsed - want; diff > longest || diff < -longest {
			t.Fatalf("workers=%d: sweep took %v, want %v give or take one interval (%v)", workers, st.SweepElapsed, want, longest)
		}
		if sum := st.SweepArm + st.SweepCPU/k; st.SweepElapsed >= sum || st.SweepHidden <= 0 {
			t.Fatalf("workers=%d: sweep took %v with %v hidden; arm %v + pool %v is %v", workers, st.SweepElapsed, st.SweepHidden, st.SweepArm, st.SweepCPU/k, sum)
		}
		// (Exact but for the tail interval, which has fewer chunks than a wide
		// pool has workers.)
		if slack := st.SweepArm + st.SweepCPU/k - st.SweepHidden - st.SweepElapsed; slack < -longest || slack > longest {
			t.Fatalf("workers=%d: elapsed %v is not arm %v + pool %v - hidden %v", workers, st.SweepElapsed, st.SweepArm, st.SweepCPU/k, st.SweepHidden)
		}
	}
}

// TestVerifyOverlapsLeaderSweep: Verify's cross-check runs beside the leader
// sweep, so the pass costs walk + claim + max(check, sweep) + image verify,
// not their sum — and reports the same problems at widths 1, 2 and 8, while
// the sweep reads every leader once, in head order.
func TestVerifyOverlapsLeaderSweep(t *testing.T) {
	const files = 3*verifyChunk - 100 // three chunks: widths 1, 2 and 3 differ
	var want []string
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.CheckWorkers = workers
		v, d, _ := newTestVolumeWith(t, cfg)
		rng := rand.New(rand.NewSource(43))
		for _, i := range rng.Perm(files) {
			if _, err := v.Create(fmt.Sprintf("ov/d%d/f%04d", i%5, i), payload(100+rng.Intn(1500), byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		// Something to report: a decayed leader and a rotted one.
		for i, name := range []string{"ov/d1/f0001", "ov/d2/f0002"} {
			e, err := v.Stat(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			addr, _ := e.LeaderAddr()
			if i == 0 {
				d.CorruptSectors(addr, 1)
			} else {
				d.SmashSector(addr, payload(disk.SectorSize, 0x3C), nil)
			}
		}
		var reads []ntWrite
		recordDataReads(v, d, &reads)
		st, err := v.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = st.Problems
			if len(want) != 2 {
				t.Fatalf("planted two leader faults, Verify reports %v", want)
			}
		} else if !reflect.DeepEqual(st.Problems, want) {
			t.Fatalf("workers=%d: problems\n%v\nwant\n%v", workers, st.Problems, want)
		}
		// Every leader read once, in head order; the decayed one is retried
		// in place.
		if read := checkHeadOrder(t, fmt.Sprintf("workers=%d", workers), d, reads); len(read) != files || st.Leaders != files || st.LeadersPending != 0 {
			t.Fatalf("workers=%d: leader sweep read %d sectors for %d leaders, %d of them pending", workers, len(read), st.Leaders, st.LeadersPending)
		}
		var sweep time.Duration
		for _, r := range reads {
			sweep += r.elapsed
		}
		// A pool is no wider than its chunks are many.
		k := time.Duration(min(workers, verifyChunks(files)))
		share := func(cpu time.Duration) time.Duration { return (cpu + k - 1) / k }
		claimCPU := time.Duration(st.Entries) * sim.CostBTreeOp / 4
		imageCPU := time.Duration(st.Leaders-1) * sim.CostChecksumPage // the decayed one never read
		checkCPU := st.CheckCPU - claimCPU - imageCPU
		bound := st.WalkElapsed + share(claimCPU) + max(share(checkCPU), sweep) + share(imageCPU)
		if st.Elapsed != bound || st.Hidden != min(share(checkCPU), sweep) || st.Hidden == 0 {
			t.Fatalf("workers=%d: Verify took %v with %v hidden, want walk %v + claim %v + max(check %v, sweep %v) + images %v = %v",
				workers, st.Elapsed, st.Hidden, st.WalkElapsed, share(claimCPU), share(checkCPU), sweep, share(imageCPU), bound)
		}
		if st.WalkElapsed+st.CheckElapsed+st.LeaderElapsed != st.Elapsed || st.Arm < sweep {
			t.Fatalf("workers=%d: walk %v + check %v + leaders %v of %v; arm %v, sweep %v", workers,
				st.WalkElapsed, st.CheckElapsed, st.LeaderElapsed, st.Elapsed, st.Arm, sweep)
		}
	}
}

// TestSalvageCrashWhileDecodeInFlight (run under -race by verify.sh): the
// device halts in the middle of the read of interval i+1, while the pool is
// decoding interval i — at every interval of a small volume, at widths 1, 2
// and 8. The sweep, and with it Salvage, must return only when the decode has
// finished (no goroutine outlives it, none starts afterwards), the durable
// cursor must not
// cover interval i, which was swept but never merged, and a resume at another
// width must end in the volume a salvage that never crashed builds.
func TestSalvageCrashWhileDecodeInFlight(t *testing.T) {
	d, files := salvageImage(t)
	refDisk := d.Clone(sim.NewVirtualClock())
	refCfg := testConfig()
	refCfg.CheckWorkers = 1
	refVol, refSt, err := Salvage(refDisk, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	lay := refVol.lay
	refListing := volumeListing(t, refVol)
	if err := refVol.Shutdown(); err != nil {
		t.Fatal(err)
	}
	platters := func(d *disk.Disk) []byte {
		var all []byte
		for addr := 0; addr < lay.total; addr++ {
			sec, err := d.ReadSectors(addr, 1)
			if err != nil {
				sec = bytes.Repeat([]byte{0xEE}, disk.SectorSize)
			}
			all = append(all, sec...)
		}
		return all
	}
	refPlatters := platters(refDisk)

	starts, _ := sweepIntervals(lay)
	widths := []int{1, 2, 8}
	for wi, workers := range widths {
		for i := 0; i+1 < len(starts); i++ {
			dc := d.Clone(sim.NewVirtualClock())
			watch := newReadWatch(starts)
			r, _ := sweepRun(t, dc, workers, func(e disk.OpEvent) {
				if !e.Write && lay.region(e.Addr) == regionData {
					watch.note(e.Addr)
				}
			})
			var returned atomic.Bool
			var halt sync.Once
			var strays atomic.Int32
			r.onScan = func(interval int) {
				if returned.Load() {
					strays.Add(1)
				}
				if interval == i {
					<-watch.seen[i+1]
					halt.Do(dc.Halt)
				}
			}
			before := runtime.NumGoroutine()
			err := r.sweep(lay.dataLo) // what Salvage returns with when it fails
			returned.Store(true)
			if !errors.Is(err, disk.ErrHalted) {
				t.Fatalf("workers=%d interval %d: sweep over a halted device: %v", workers, i, err)
			}
			for tries := 0; runtime.NumGoroutine() > before; tries++ {
				if tries == 200 {
					t.Fatalf("workers=%d interval %d: %d goroutines outlive the sweep's return", workers, i, runtime.NumGoroutine()-before)
				}
				time.Sleep(time.Millisecond)
			}

			if strays.Load() != 0 {
				t.Fatalf("workers=%d interval %d: %d chunk functions started after the sweep had returned", workers, i, strays.Load())
			}
			dc.Revive()
			ck, ok := readSalvageCheckpoint(dc, lay, testConfig().readRetries())
			if !ok || ck.phase != salvageSweep || ck.cursor > starts[i] {
				t.Fatalf("workers=%d interval %d: checkpoint %+v (found=%v) covers sectors from %d on, which were never merged", workers, i, ck, ok, starts[i])
			}
			resCfg := testConfig()
			resCfg.CheckWorkers = widths[(wi+1+i%2)%len(widths)]
			rv, st, err := Salvage(dc, resCfg)
			if err != nil {
				t.Fatalf("workers=%d interval %d: resume at width %d: %v", workers, i, resCfg.CheckWorkers, err)
			}
			if !st.Resumed || st.CandidateLeaders != refSt.CandidateLeaders || st.DamagedSectors != refSt.DamagedSectors ||
				st.FilesRecovered != refSt.FilesRecovered || !reflect.DeepEqual(st.Problems, refSt.Problems) {
				t.Fatalf("workers=%d interval %d: resumed salvage reports\n%+v\nthe reference\n%+v", workers, i, st, refSt)
			}
			if listing := volumeListing(t, rv); fmt.Sprint(listing) != fmt.Sprint(refListing) {
				t.Fatalf("workers=%d interval %d: resumed listing\n%v\nwant\n%v", workers, i, listing, refListing)
			}
			for name, want := range files {
				f, err := rv.Open(name, 0)
				if err != nil {
					t.Fatalf("workers=%d interval %d: %s lost: %v", workers, i, name, err)
				}
				if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("workers=%d interval %d: %s content wrong: %v", workers, i, name, err)
				}
			}
			if err := rv.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(platters(dc), refPlatters) {
				t.Fatalf("workers=%d interval %d: the resumed volume's platters differ from the uncrashed salvage's", workers, i)
			}
		}
	}
}

// TestSweepAllocsBounded: the sweep reads the data region through its two
// interval buffer sets, so what it allocates does not grow with the volume —
// a volume four times the size costs a few hundred bytes of pool bookkeeping
// per extra interval, where a buffer per chunk cost a megabyte.
func TestSweepAllocsBounded(t *testing.T) {
	sweepBytes := func(cylinders int) (allocated uint64, intervals int) {
		geom := disk.SmallGeometry
		geom.Cylinders = cylinders
		d, err := disk.New(geom, disk.DefaultParams, sim.NewVirtualClock())
		if err != nil {
			t.Fatal(err)
		}
		v, err := Format(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := v.Create(fmt.Sprintf("al/f%03d", i), payload(300+i*97, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Shutdown(); err != nil {
			t.Fatal(err)
		}
		v.DestroyNameTable()
		cfg := testConfig()
		cfg.CheckWorkers = 2
		var st SalvageStats
		r, err := newSalvageRun(d, cfg, &st)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := r.sweep(r.lay.dataLo); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if st.CandidateLeaders != 40 || st.SectorsScanned < geom.Sectors()*9/10 {
			t.Fatalf("sweep of %d cylinders: %+v", cylinders, st)
		}
		starts, _ := sweepIntervals(r.lay)
		return m1.TotalAlloc - m0.TotalAlloc, len(starts)
	}
	small, smallN := sweepBytes(disk.SmallGeometry.Cylinders)
	big, bigN := sweepBytes(4 * disk.SmallGeometry.Cylinders)
	const sets = 2 * sweepCheckpointChunks * MaxTransferSectors * disk.SectorSize
	if small > sets+(1<<20) {
		t.Fatalf("sweep of the small volume allocated %d KB, want the two buffer sets (%d KB) and change", small>>10, sets>>10)
	}
	if extra := int64(big) - int64(small); extra > int64(bigN-smallN)*(16<<10) {
		t.Fatalf("%d more intervals cost %d KB more (%d KB against %d KB): the sweep's allocation grows with the volume",
			bigN-smallN, extra>>10, big>>10, small>>10)
	}
}
