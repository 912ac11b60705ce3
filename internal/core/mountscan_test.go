package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/btree"
	"repro/internal/disk"
)

// Decode behind the arm (DESIGN §17): the tests that hold the mount's
// name-table scan to decoding its leaves while both copies are still
// streaming in.

// crashedChurn is a churned volume crashed with an unforced tail in its log:
// the image the crash mounts below recover, each from a clone.
func crashedChurn(t *testing.T) *disk.Disk {
	t.Helper()
	v, d, _ := newTestVolume(t)
	churn(t, v, rand.New(rand.NewSource(17)))
	for i := 0; i < 25; i++ {
		if _, err := v.Create(fmt.Sprintf("late/l%02d", i), payload(300, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	v.Crash()
	d.Revive()
	return d
}

// scanWatch follows a mount's scan from both sides. From the device's: every
// chunk transfer of the sweep, in issue order, seen[k] closing when the k-th
// completes. From the pool's: onSweep is the volume's hook. watching installs
// both on the volume a mount is building.
type scanWatch struct {
	lay     layout
	reads   []disk.OpEvent // the sweep's chunk transfers
	seen    []chan struct{}
	onSweep func(stretch int)
}

func (w *scanWatch) watching(d *disk.Disk) MountOption {
	return func(o *mountOptions) {
		o.onVolume = func(v *Volume) {
			w.lay = v.lay
			v.onSweep = w.onSweep
			d.SetOpObserver(func(e disk.OpEvent) {
				v.observeDiskOp(e)
				r := w.lay.region(e.Addr)
				if e.Write || (r != regionNTA && r != regionNTB) {
					return
				}
				// The tree open reads single pages; the sweep starts with a
				// full transfer of copy A and is the last to read the table.
				if len(w.reads) == 0 && (e.Addr != w.lay.ntA || e.Sectors != MaxTransferSectors) {
					return
				}
				if k := len(w.reads); k < len(w.seen) {
					close(w.seen[k])
				}
				w.reads = append(w.reads, e)
			})
		}
	}
}

func newScanWatch(stretches int) *scanWatch {
	w := &scanWatch{seen: make([]chan struct{}, stretches)}
	for i := range w.seen {
		w.seen[i] = make(chan struct{})
	}
	return w
}

// scanStretches is how many transfers a two-copy sweep of the crashed image's
// table makes, learnt from a reference mount.
func scanStretches(t *testing.T, d *disk.Disk) (stretches int, ref MountReport) {
	t.Helper()
	v, ref, err := Mount(cloneDisk(d), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := (v.nt.AllocatedPages() + ntSweepPages - 1) / ntSweepPages
	if n < 4 || ref.SweepChunks != 2*n || ref.SweepFallbacks != 0 {
		t.Fatalf("reference mount: %d-chunk table swept in %d transfers with %d fallbacks; want at least 4 chunks, two transfers each, none", n, ref.SweepChunks, ref.SweepFallbacks)
	}
	return 2 * n, ref
}

// TestMountScanDecodesBehindTheArm: the crash mount decodes chunk c while the
// arm reads the chunks after it — observed, not computed: every chunk function
// of stretch s waits until the device has finished the transfer of stretch
// s+1 — and the device sees what it saw before: copy A's chunks ascending,
// then copy B's, two transfers per chunk. On the clock the scan costs about
// the larger of arm and pool, strictly less than their sum, with the smaller
// of the two hidden, at widths 1, 2 and 8.
func TestMountScanDecodesBehindTheArm(t *testing.T) {
	d := crashedChurn(t)
	stretches, _ := scanStretches(t, d)
	for _, workers := range []int{1, 2, 8} {
		w := newScanWatch(stretches)
		var late atomic.Int32
		perStretch := make([]atomic.Int32, stretches)
		w.onSweep = func(s int) {
			perStretch[s].Add(1)
			if s+1 == stretches {
				return
			}
			select {
			case <-w.seen[s+1]:
			case <-time.After(10 * time.Second):
				late.Add(1)
			}
		}
		cfg := testConfig()
		cfg.MountWorkers = workers
		dc := cloneDisk(d)
		v, ms, err := Mount(dc, cfg, w.watching(dc))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if late.Load() != 0 {
			t.Fatalf("workers=%d: %d chunk functions gave up waiting for the next transfer: the decode does not run beside the arm", workers, late.Load())
		}
		pages := v.nt.AllocatedPages()
		for s := range perStretch {
			want := min(ntSweepPages, pages-(s%(stretches/2))*ntSweepPages)
			if got := int(perStretch[s].Load()); got != want {
				t.Fatalf("workers=%d: stretch %d ran %d chunk functions, want one per page (%d)", workers, s, got, want)
			}
		}
		if len(w.reads) != stretches || ms.SweepChunks != stretches || ms.SweepFallbacks != 0 || ms.SweepPages != pages {
			t.Fatalf("workers=%d: %d transfers observed, stats %+v; want %d transfers over %d pages and no fallback", workers, len(w.reads), ms.MountStats, stretches, pages)
		}
		var longest time.Duration
		for k, e := range w.reads {
			base := w.lay.ntA
			if k >= stretches/2 {
				base = w.lay.ntB
			}
			if want := base + (k%(stretches/2))*MaxTransferSectors; e.Addr != want {
				t.Fatalf("workers=%d: transfer %d at sector %d, want %d (copy A ascending, then copy B)", workers, k, e.Addr, want)
			}
			longest = max(longest, e.Elapsed())
		}

		// The clock. A chunk of the pool's work is at most a full chunk's
		// checksums and a leaf's worth of entries per page.
		k := time.Duration(workers)
		pool := (ms.ScanCPU + k - 1) / k
		longest = max(longest, ms.ScanCPU/time.Duration(stretches/2)/k)
		if ms.ScanArm <= 0 || ms.ScanCPU <= 0 || ms.ScanHidden <= 0 {
			t.Fatalf("workers=%d: the scan reports arm %v, pool %v, hidden %v", workers, ms.ScanArm, ms.ScanCPU, ms.ScanHidden)
		}
		if bound := max(ms.ScanArm, pool); ms.VAMElapsed < bound || ms.VAMElapsed > bound+longest || ms.VAMElapsed >= ms.ScanArm+pool {
			t.Fatalf("workers=%d: scan took %v; arm %v, pool %v: want the larger give or take one chunk (%v), and less than the sum", workers, ms.VAMElapsed, ms.ScanArm, pool, longest)
		}
		if diff := ms.ScanHidden - min(ms.ScanArm, pool); diff > longest || diff < -longest {
			t.Fatalf("workers=%d: %v hidden; arm %v, pool %v: want the smaller give or take one chunk (%v)", workers, ms.ScanHidden, ms.ScanArm, pool, longest)
		}
		if rc := v.Stats().Recovery; rc != ms.MountStats {
			t.Fatalf("workers=%d: Stats().Recovery does not carry the scan's timelines: %+v vs %+v", workers, rc, ms.MountStats)
		}
	}
}

// TestReplayRunsUnderTheDecode: the crash mount replays the log while its
// pool is still decoding the swept table (DESIGN §8). On a pool-bound mount —
// a home table of some twenty chunks, a log of forty forced batches since it
// went home — replaying first and scanning after costs at least the mount's
// own steps (what a mount of the same table with no log to replay spends
// beyond its pool), the replay, the redo and the pool's share of the scan one
// after another; at widths 1 and 2 the mount comes in under that by at least
// 0.8 of the replay, and reports at least 0.8 of the replay as hidden.
func TestReplayRunsUnderTheDecode(t *testing.T) {
	cfg := testConfig()
	cfg.NTPages = 1024
	v, d, _ := newTestVolumeWith(t, cfg)
	for i := 0; i < 6000; i++ {
		if _, err := v.Create(fmt.Sprintf("home/d%02d/f%04d", i%13, i), payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DropCaches(); err != nil { // the table so far is home
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := v.Create(fmt.Sprintf("late/l%02d", i), payload(300, byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
	}
	v.Crash()
	d.Revive()
	for _, workers := range []int{1, 2} {
		cfg.MountWorkers = workers
		dc := cloneDisk(d)
		mv, ms, err := Mount(dc, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rc := mv.Stats().Recovery
		mv.Crash()
		dc.Revive()
		// The same table, crashed again just after its recovery: a mount with
		// next to no log to replay, whose time beyond its pool is the mount's
		// own steps — reading and stamping the root, opening the log, the
		// arm's lead before the pool has work, the log's reset.
		_, qs, err := Mount(cloneDisk(dc), cfg)
		if err != nil {
			t.Fatalf("workers=%d, re-crashed: %v", workers, err)
		}
		if qs.LogRecords != 0 || qs.RedoElapsed != 0 {
			t.Fatalf("workers=%d: the re-crashed mount replayed %d records and redid %v", workers, qs.LogRecords, qs.RedoElapsed)
		}
		pool := ms.ScanCPU / time.Duration(workers)
		steps := qs.Elapsed - qs.ScanCPU/time.Duration(workers)
		if pool <= ms.ScanArm+ms.ReplayElapsed+ms.RedoElapsed {
			t.Fatalf("workers=%d: pool %v, arm %v, replay %v, redo %v: the mount is not pool-bound", workers, pool, ms.ScanArm, ms.ReplayElapsed, ms.RedoElapsed)
		}
		serial := steps + ms.ReplayElapsed + ms.RedoElapsed + pool
		if gain := serial - ms.Elapsed; gain < ms.ReplayElapsed*8/10 {
			t.Fatalf("workers=%d: mount %v against steps %v + replay %v + redo %v + pool %v = %v; want it under by at least 0.8 of the replay", workers, ms.Elapsed, steps, ms.ReplayElapsed, ms.RedoElapsed, pool, serial)
		}
		if ms.ReplayHidden < ms.ReplayElapsed*8/10 || ms.SweepRedecoded == 0 {
			t.Fatalf("workers=%d: %v of a %v replay hidden, %d pages decoded again: %+v", workers, ms.ReplayHidden, ms.ReplayElapsed, ms.SweepRedecoded, ms.MountStats)
		}
		if rc != ms.MountStats {
			t.Fatalf("workers=%d: Stats().Recovery does not carry the replay's overlap: %+v vs %+v", workers, rc, ms.MountStats)
		}
	}
}

// TestMountScanSimTimeRepeats (run under -race by verify.sh): five crash
// mounts of clones of one image take exactly the same simulated time, phase by
// phase, at widths 1, 2 and 8 — the pool's goroutines finish in whatever order
// the scheduler likes, and what goes on the clock is what the lane computes
// from the device order and each stretch's balanced CPU.
func TestMountScanSimTimeRepeats(t *testing.T) {
	d := crashedChurn(t)
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.MountWorkers = workers
		var first MountStats
		for run := 0; run < 5; run++ {
			_, ms, err := Mount(cloneDisk(d), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = ms.MountStats
			} else if ms.MountStats != first {
				t.Fatalf("workers=%d: run %d of one image reports\n%+v\nrun 0\n%+v", workers, run, ms.MountStats, first)
			}
		}
		if first.VAMElapsed == 0 || first.ScanHidden == 0 {
			t.Fatalf("workers=%d: the mount did not scan: %+v", workers, first)
		}
	}
}

// cachedPages lists the name-table pages a volume's cache holds.
func cachedPages(v *Volume) []uint32 {
	v.cache.mu.Lock()
	defer v.cache.mu.Unlock()
	ids := make([]uint32, 0, len(v.cache.pages))
	for id := range v.cache.pages {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestMountRebuildIdenticalAcrossWidths: what the scan rebuilds does not
// depend on how wide its pool is or on which worker decoded what — the VAM
// bitmap, the leader-owner map, the listing and the pages left in the cache
// are equal at widths 1, 2 and 8, and the first two equal the chain-walk
// reference — on the churned image and on each of crashStates.
func TestMountRebuildIdenticalAcrossWidths(t *testing.T) {
	states := append([]crashState{{name: "churned", d: crashedChurn(t)}}, crashStates(t)...)
	for _, cs := range states {
		var wantMap, wantList []byte
		var wantOwners map[int]uint64
		var wantCached []uint32
		for _, workers := range []int{1, 2, 8} {
			cfg := testConfig()
			cfg.MountWorkers = workers
			v, ms, err := Mount(cloneDisk(cs.d), cfg)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", cs.name, workers, err)
			}
			if ms.SweepPages <= cfg.CacheSize {
				t.Fatalf("%s: table of %d pages fits the %d-page cache; the test needs the admissions to evict", cs.name, ms.SweepPages, cfg.CacheSize)
			}
			if cs.check != nil {
				cs.check(t, ms, v.nt.AllocatedPages())
			}
			gotMap, gotCached, gotList := vamBitmap(v.vm), cachedPages(v), listing(t, v)
			owners, _, err := v.mountScan(v.nt.AllocatedPages(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotMap, vamBitmap(v.vm)) {
				t.Fatalf("%s, workers=%d: a second scan rebuilds a different VAM", cs.name, workers)
			}
			if wantMap == nil {
				wantMap, wantOwners = chainWalkRebuild(t, v)
				wantCached, wantList = gotCached, gotList
			}
			if !bytes.Equal(gotMap, wantMap) || !reflect.DeepEqual(owners, wantOwners) {
				t.Fatalf("%s, workers=%d: rebuilt VAM or leader owners (%d) differ from the chain-walk reference (%d owners)", cs.name, workers, len(owners), len(wantOwners))
			}
			if !slices.Equal(gotCached, wantCached) || !bytes.Equal(gotList, wantList) {
				t.Fatalf("%s, workers=%d: the mount left pages %v in the cache and a listing of %d bytes, width 1 left %v and %d bytes", cs.name, workers, gotCached, len(gotList), wantCached, len(wantList))
			}
		}
	}
}

// TestSpeculativeDecodeDiscardsSuspect: the pool decodes a leaf from copy A
// before anyone has seen copy B or walked the chain, and nothing may be
// decided by that. A leaf whose copy A is an old, CRC-valid generation — still
// naming a since-deleted file — and goes unreadable before the per-page path
// gets to it must be rebuilt from copy B, the survivor that path serves; and
// the same old image planted on an allocated page no chain link reaches is
// decoded, dropped and counted, and marks nothing allocated.
func TestSpeculativeDecodeDiscardsSuspect(t *testing.T) {
	var stale []byte
	var staleID uint32
	var ghost Entry
	d := quiesced(t, func(v *Volume) {
		populate(t, v, 60)
		f, err := v.Create("ghost/file", payload(3000, 9))
		if err != nil {
			t.Fatal(err)
		}
		ghost = f.Entry()
		for id := 1; id < v.nt.AllocatedPages() && stale == nil; id++ {
			page, err := v.cache.Read(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			if !btree.IsLeaf(page) {
				continue
			}
			_ = btree.LeafEntries(page, func(k, _ []byte) bool {
				if name, _, ok := splitKey(k); ok && name == "ghost/file" {
					stale, staleID = append([]byte(nil), page...), uint32(id)
				}
				return stale == nil
			})
		}
		if stale == nil {
			t.Fatal("no leaf holds the ghost entry")
		}
		if err := v.Delete("ghost/file", 0); err != nil {
			t.Fatal(err)
		}
	})
	stampCRC(stale)
	root, err := readRoot(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	lay := root.layout
	ghostFree := func(t *testing.T, what string, v *Volume) {
		t.Helper()
		for _, r := range ghost.Runs {
			if !v.vm.IsFree(int(r.Start)) {
				t.Fatalf("%s: sector %d of the deleted file is allocated: the speculative decode reached the rebuild", what, r.Start)
			}
		}
		checkRebuildMatchesChainWalk(t, v)
	}

	t.Run("stale copy A", func(t *testing.T) {
		dc := cloneDisk(d)
		addrA, _ := lay.ntPageAddrs(staleID)
		if err := dc.WriteSectors(addrA, stale); err != nil {
			t.Fatal(err)
		}
		// Copy A decays once the sweep has read (and the pool decoded) it:
		// the first chunk function of a copy B stretch runs after every
		// transfer of copy A.
		var decay sync.Once
		var chunksA int
		v, ms, err := Mount(dc, testConfig(), func(o *mountOptions) {
			o.onVolume = func(v *Volume) {
				chunksA = (int(readAllocated(t, dc, lay)) + ntSweepPages - 1) / ntSweepPages
				v.onSweep = func(s int) {
					if s >= chunksA {
						decay.Do(func() { dc.CorruptSectors(addrA+1, 1) })
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if ms.SweepFallbacks != 1 || ms.SweepStaleLeaves != 0 {
			t.Fatalf("want the one differing page on the per-page path and no stale leaf: %+v", ms.MountStats)
		}
		ghostFree(t, "copy A stale, then unreadable", v)
	})

	t.Run("unreachable leaf", func(t *testing.T) {
		dc := cloneDisk(d)
		// Grow the allocated prefix by one page (the meta page's nextFresh,
		// at byte 28 of page 0) and put the old image there, in both copies.
		allocated := readAllocated(t, dc, lay)
		metaA, metaB := lay.ntPageAddrs(0)
		meta, err := dc.ReadSectors(metaA, NTPageSectors)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(meta[28:], allocated+1)
		stampCRC(meta)
		leafA, leafB := lay.ntPageAddrs(allocated)
		for addr, img := range map[int][]byte{metaA: meta, metaB: meta, leafA: stale, leafB: stale} {
			if err := dc.WriteSectors(addr, img); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			cfg := testConfig()
			cfg.MountWorkers = workers
			v, ms, err := Mount(cloneDisk(dc), cfg)
			if err != nil {
				t.Fatalf("workers=%d: Mount: %v", workers, err)
			}
			if ms.SweepPages != int(allocated)+1 || ms.SweepFallbacks != 0 || ms.SweepStaleLeaves != 1 {
				t.Fatalf("workers=%d: want the planted page swept verified and counted as the one stale leaf: %+v", workers, ms.MountStats)
			}
			ghostFree(t, fmt.Sprintf("workers=%d, unreachable leaf", workers), v)
		}
	})
}

// readAllocated reads the name table's allocated-page count off the platters.
func readAllocated(t *testing.T, d *disk.Disk, lay layout) uint32 {
	t.Helper()
	metaA, _ := lay.ntPageAddrs(0)
	meta, err := d.ReadSectors(metaA, NTPageSectors)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(meta[28:])
}

// TestMountCrashWhileDecodeInFlight (run under -race by verify.sh): the device
// halts while the pool is decoding stretch s and the driver is somewhere in
// the transfers after it — at every stretch of a small volume, at widths 1, 2
// and 8. Mount must return the failure only when the pool has finished (no
// goroutine outlives it, no chunk function starts afterwards), and the next
// mount must replay the very same log and rebuild what an undisturbed mount
// rebuilds.
func TestMountCrashWhileDecodeInFlight(t *testing.T) {
	d := crashedChurn(t)
	stretches, ref := scanStretches(t, d)
	refVol, _, err := Mount(cloneDisk(d), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refMap := vamBitmap(refVol.vm)
	for _, workers := range []int{1, 2, 8} {
		for s := 0; s < stretches; s++ {
			dc := cloneDisk(d)
			var returned atomic.Bool
			var strays atomic.Int32
			var halt sync.Once
			cfg := testConfig()
			cfg.MountWorkers = workers
			before := runtime.NumGoroutine()
			_, _, err := Mount(dc, cfg, func(o *mountOptions) {
				o.onVolume = func(v *Volume) {
					v.onSweep = func(stretch int) {
						if returned.Load() {
							strays.Add(1)
						}
						if stretch == s {
							halt.Do(dc.Halt)
						}
					}
				}
			})
			returned.Store(true)
			if err == nil {
				t.Fatalf("workers=%d stretch %d: Mount succeeded on a halted device", workers, s)
			}
			for tries := 0; runtime.NumGoroutine() > before; tries++ {
				if tries == 200 {
					t.Fatalf("workers=%d stretch %d: %d goroutines outlive the failed mount", workers, s, runtime.NumGoroutine()-before)
				}
				time.Sleep(time.Millisecond)
			}
			if strays.Load() != 0 {
				t.Fatalf("workers=%d stretch %d: %d chunk functions started after Mount had returned", workers, s, strays.Load())
			}
			dc.Revive()
			v, ms, err := Mount(dc, testConfig())
			if err != nil {
				t.Fatalf("workers=%d stretch %d: the next mount: %v", workers, s, err)
			}
			if ms.LogRecords != ref.LogRecords || ms.LogImagesApplied != ref.LogImagesApplied || ms.SweepFallbacks != 0 {
				t.Fatalf("workers=%d stretch %d: the next mount replayed %d records (%d images), the reference %d (%d): %+v",
					workers, s, ms.LogRecords, ms.LogImagesApplied, ref.LogRecords, ref.LogImagesApplied, ms.MountStats)
			}
			if !bytes.Equal(vamBitmap(v.vm), refMap) {
				t.Fatalf("workers=%d stretch %d: the next mount rebuilt a different VAM", workers, s)
			}
		}
	}
}

// TestMountScanAllocsBounded: the scan allocates the two region copies it
// holds until the end, a result per page, the VAM it rebuilds and the pool's
// bookkeeping per stretch — and no more at width 8 than at width 1.
func TestMountScanAllocsBounded(t *testing.T) {
	d := crashedChurn(t)
	var at1 uint64
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.MountWorkers = workers
		v, _, err := Mount(cloneDisk(d), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pages := v.nt.AllocatedPages()
		got := allocgate.BytesPerRun(3, func() {
			if _, _, err := v.mountScan(v.nt.AllocatedPages(), nil); err != nil {
				t.Fatal(err)
			}
		})
		// Per page: two 2 KB images and about half a page's worth of decoded
		// runs and leader refs; per volume: the bitmap and the owner map.
		ceiling := uint64(pages)*(2*NTPageSize+NTPageSize/2) + uint64(v.lay.total/8) + 256<<10
		if got > ceiling {
			t.Fatalf("workers=%d: a scan of %d pages allocated %d KB, want at most %d KB", workers, pages, got>>10, ceiling>>10)
		}
		if workers == 1 {
			at1 = got
		} else if got > at1+64<<10 {
			t.Fatalf("workers=%d: the scan allocated %d KB, %d KB at width 1: its memory grows with the pool", workers, got>>10, at1>>10)
		}
	}
}

// BenchmarkMountScan is one crash mount of a fixed churned image at widths 1,
// 2 and 8: sim-s/op is the mount's simulated time, hidden-s/op how much of the
// scan's pool share ran beside the arm, B/op the mount's allocation (the
// scan's two region copies and per-page results dominate it).
func BenchmarkMountScan(b *testing.B) {
	v, d, _ := newTestVolumeWith(b, testConfig())
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1500; i++ {
		if _, err := v.Create(fmt.Sprintf("bench/d%02d/f%04d", i%11, i), payload(100+rng.Intn(1500), byte(i))); err != nil {
			b.Fatal(err)
		}
	}
	v.Crash()
	d.Revive()
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := testConfig()
			cfg.MountWorkers = workers
			var sim, hidden time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dc := cloneDisk(d)
				b.StartTimer()
				_, ms, err := Mount(dc, cfg)
				if err != nil {
					b.Fatal(err)
				}
				sim += ms.Elapsed
				hidden += ms.ScanHidden
			}
			b.ReportMetric(sim.Seconds()/float64(b.N), "sim-s/op")
			b.ReportMetric(hidden.Seconds()/float64(b.N), "hidden-s/op")
		})
	}
}
