package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vam"
)

// vamBitmap serializes the whole allocation bitmap.
func vamBitmap(vm *vam.VAM) []byte {
	sectors := vam.BitmapSectorOfPage(vm.Pages()-1) + 1
	out := make([]byte, sectors*disk.SectorSize)
	for i := 0; i < sectors; i++ {
		vm.EncodeBitmapSector(i, out[i*disk.SectorSize:(i+1)*disk.SectorSize])
	}
	return out
}

// chainWalkRebuild is the reference the region sweep replaced: follow the
// leaf chain through the pager (btree.Scan), one page at a time, and build
// the allocation bitmap and the leader-owner map from the entries it meets.
func chainWalkRebuild(t *testing.T, v *Volume) ([]byte, map[int]uint64) {
	t.Helper()
	vm := vam.New(v.lay.total)
	vm.MarkFree(v.lay.dataLo, v.lay.total-v.lay.dataLo)
	vm.MarkAllocated(v.lay.logBase, v.lay.vamBase+v.lay.vamSectors-v.lay.logBase)
	owners := make(map[int]uint64)
	err := v.nt.Scan(nil, func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		e, err := decodeEntry(name, ver, val)
		if err != nil {
			return true
		}
		if len(e.Runs) > 0 {
			owners[int(e.Runs[0].Start)] = e.UID
		}
		for _, r := range e.Runs {
			vm.MarkAllocated(int(r.Start), int(r.Len))
		}
		return true
	})
	if err != nil {
		t.Fatalf("reference chain walk: %v", err)
	}
	return vamBitmap(vm), owners
}

// checkRebuildMatchesChainWalk runs the sweep-based scan on a mounted volume
// and holds its output to the chain-walk reference.
func checkRebuildMatchesChainWalk(t *testing.T, v *Volume) {
	t.Helper()
	owners, _, err := v.scanForRebuild(true)
	if err != nil {
		t.Fatalf("scanForRebuild: %v", err)
	}
	wantMap, wantOwners := chainWalkRebuild(t, v)
	if !bytes.Equal(vamBitmap(v.vm), wantMap) {
		t.Fatal("sweep-rebuilt VAM bitmap differs from the chain-walk reference")
	}
	if !reflect.DeepEqual(owners, wantOwners) {
		t.Fatalf("sweep-rebuilt leader owners differ from the chain-walk reference: %d vs %d entries", len(owners), len(wantOwners))
	}
}

// churn fills a volume the way that leaves the name table in its worst
// shape: a base population, then waves of never-reused temporary names that
// are deleted again (emptied and half-empty leaves stay in the chain), plus
// versions and deletes spread over the base names.
func churn(t *testing.T, v *Volume, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 300; i++ {
		if _, err := v.Create(fmt.Sprintf("base/d%02d/f%03d", i%9, i), payload(100+rng.Intn(1500), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	seq := 0
	for wave := 0; wave < 6; wave++ {
		var tmp []string
		for i := 0; i < 120; i++ {
			name := fmt.Sprintf("tmp/t%06d", seq)
			seq++
			if _, err := v.Create(name, payload(50+rng.Intn(400), byte(seq))); err != nil {
				t.Fatal(err)
			}
			tmp = append(tmp, name)
		}
		for i, name := range tmp {
			if wave%2 == 0 || i%7 != 0 {
				if err := v.Delete(name, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 40; i++ {
			n := rng.Intn(300)
			name := fmt.Sprintf("base/d%02d/f%03d", n%9, n)
			if rng.Intn(3) == 0 {
				if err := v.Delete(name, 0); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			} else if _, err := v.Create(name, payload(100+rng.Intn(900), byte(n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
}

// cloneDisk copies a (crashed, revived) disk onto a fresh clock.
func cloneDisk(d *disk.Disk) *disk.Disk {
	return d.Clone(sim.NewVirtualClock())
}

// TestSweepRebuildMatchesChainWalk: on a churned, crashed volume the VAM
// bitmap and leader-owner map the region sweep rebuilds are byte-identical
// to the chain-walk reference, at every mount width.
func TestSweepRebuildMatchesChainWalk(t *testing.T) {
	v, d, _ := newTestVolume(t)
	churn(t, v, rand.New(rand.NewSource(7)))
	// A few more mutations stay unforced, so the log tail is torn mid-batch.
	for i := 0; i < 25; i++ {
		if _, err := v.Create(fmt.Sprintf("late/l%02d", i), payload(300, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	v.Crash()
	d.Revive()
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.MountWorkers = workers
		v2, ms, err := Mount(cloneDisk(d), cfg)
		if err != nil {
			t.Fatalf("workers=%d: Mount: %v", workers, err)
		}
		if !ms.VAMReconstructed || ms.SweepFallbacks != 0 || ms.SweepPages != v2.nt.AllocatedPages() {
			t.Fatalf("workers=%d: mount did not sweep the whole allocated table cleanly: %+v (allocated %d)", workers, ms, v2.nt.AllocatedPages())
		}
		if ms.SweepPages <= testConfig().CacheSize {
			t.Fatalf("table of %d pages does not exceed the %d-page cache; the test needs eviction during the sweep", ms.SweepPages, testConfig().CacheSize)
		}
		mounted := vamBitmap(v2.vm)
		if first == nil {
			first = mounted
		} else if !bytes.Equal(first, mounted) {
			t.Fatalf("workers=%d: mounted VAM differs from the width-1 mount", workers)
		}
		checkRebuildMatchesChainWalk(t, v2)
		if !bytes.Equal(mounted, vamBitmap(v2.vm)) {
			t.Fatalf("workers=%d: second scan disagrees with the mount's", workers)
		}
		if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
			t.Fatalf("workers=%d: Verify: %v %v", workers, err, vs.Problems)
		}
	}
}

// quiesced returns a crashed volume image with an empty log: populated,
// shut down cleanly, remounted (which resets the log) and crashed before any
// mutation. The next mount finds the root unclean, so it rebuilds the VAM,
// and replays nothing, so whatever a test plants on the platters stays.
func quiesced(t *testing.T, fill func(v *Volume)) *disk.Disk {
	t.Helper()
	v, d, _ := newTestVolume(t)
	fill(v)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	v2.Crash()
	d.Revive()
	return d
}

// TestSweepDamageFallsBackPerPage: one latent sector error inside a sweep
// chunk sends that chunk's pages — and only those — down the per-page
// dual-copy path; the mount succeeds from the surviving copy, and the health
// budget is charged for the one fault's retries, not once per chunk page.
func TestSweepDamageFallsBackPerPage(t *testing.T) {
	d := quiesced(t, func(v *Volume) { churn(t, v, rand.New(rand.NewSource(5))) })
	lay := func() layout {
		root, err := readRoot(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		return root.layout
	}()
	const victim = 21 // second chunk, not on a chunk boundary
	for _, side := range []string{"A", "B"} {
		dd := cloneDisk(d)
		a, b := lay.ntPageAddrs(victim)
		if side == "A" {
			dd.CorruptSectors(a+2, 1)
		} else {
			dd.CorruptSectors(b+2, 1)
		}
		v, ms, err := Mount(dd, testConfig())
		if err != nil {
			t.Fatalf("copy %s damaged: Mount: %v", side, err)
		}
		if v.nt.AllocatedPages() <= 2*ntSweepPages {
			t.Fatalf("table has %d pages, need more than two chunks", v.nt.AllocatedPages())
		}
		if ms.SweepFallbacks != ntSweepPages || ms.SweepPages != v.nt.AllocatedPages()-ntSweepPages {
			t.Fatalf("copy %s damaged: fallbacks=%d verified=%d, want %d and %d", side,
				ms.SweepFallbacks, ms.SweepPages, ntSweepPages, v.nt.AllocatedPages()-ntSweepPages)
		}
		st := v.Stats()
		wantBudget := testConfig().readRetries() * weightRetry
		if st.Faults.ErrorBudget != wantBudget || st.Faults.ReadRetries != testConfig().readRetries() {
			t.Fatalf("copy %s damaged: budget %d, %d read retries; want %d and %d (one fault, not one per chunk page)",
				side, st.Faults.ErrorBudget, st.Faults.ReadRetries, wantBudget, testConfig().readRetries())
		}
		if st.Recovery.SweepFallbacks != ms.SweepFallbacks || st.Recovery.SweepChunks != ms.SweepChunks {
			t.Fatalf("Stats().Recovery does not carry the sweep counters: %+v vs %+v", st.Recovery, ms)
		}
		checkRebuildMatchesChainWalk(t, v)
		if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
			t.Fatalf("copy %s damaged: Verify: %v %v", side, err, vs.Problems)
		}
	}
}

// TestSweepReadOnlyOverlay: a read-only mount of a volume whose log holds
// committed images the home copies lack sees those images through the sweep
// — the rebuilt VAM covers the files only the log knows about — and writes
// nothing. The table is larger than the page cache, so the sweep evicts on a
// volume that has no log object.
func TestSweepReadOnlyOverlay(t *testing.T) {
	cfg := testConfig()
	cfg.GroupCommitInterval = time.Hour
	v, d, _ := newTestVolumeWith(t, cfg)
	churn(t, v, rand.New(rand.NewSource(11)))
	if err := v.DropCaches(); err != nil { // everything so far is home
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("logged/f%02d", i)
		want[name] = payload(200+i*31, byte(i))
		if _, err := v.Create(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil { // committed, in the log only
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	written := d.Stats().SectorsWritten

	ro, ms, err := Mount(d, cfg, ReadOnly())
	if err != nil {
		t.Fatalf("read-only mount: %v", err)
	}
	if ms.LogImagesApplied == 0 || ms.SweepPages <= cfg.CacheSize || ms.SweepFallbacks != 0 {
		t.Fatalf("read-only mount did not sweep an overlaid table larger than the cache: %+v", ms)
	}
	for name, data := range want {
		f, err := ro.Open(name, 0)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		e := f.Entry()
		for _, r := range e.Runs {
			if ro.vm.IsFree(int(r.Start)) {
				t.Fatalf("%s: run at %d free in the rebuilt VAM; the sweep missed the overlaid image", name, r.Start)
			}
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	checkRebuildMatchesChainWalk(t, ro)
	if got := d.Stats().SectorsWritten; got != written {
		t.Fatalf("read-only mount wrote %d sectors", got-written)
	}
}

// TestSweepIgnoresUnreachableLeaf plants a stale but valid leaf image — an
// old generation of a live leaf, still naming a since-deleted file — on an
// allocated page no chain link reaches. The rebuild must not see it.
func TestSweepIgnoresUnreachableLeaf(t *testing.T) {
	var stale []byte
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
			_ = btree.LeafEntries(page, func(k, _ []byte) bool {
				if name, _, ok := splitKey(k); ok && name == "ghost/file" {
					stale = append([]byte(nil), page...)
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
	root, err := readRoot(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	lay := root.layout
	// Grow the allocated prefix by one page (the meta page's nextFresh, at
	// byte 28 of page 0 — see the layout comment in btree/tree.go) and put
	// the stale leaf there, in both copies.
	metaA, metaB := lay.ntPageAddrs(0)
	meta, err := d.ReadSectors(metaA, NTPageSectors)
	if err != nil {
		t.Fatal(err)
	}
	allocated := binary.BigEndian.Uint32(meta[28:])
	binary.BigEndian.PutUint32(meta[28:], allocated+1)
	stampCRC(meta)
	stampCRC(stale)
	leafA, leafB := lay.ntPageAddrs(allocated)
	for addr, img := range map[int][]byte{metaA: meta, metaB: meta, leafA: stale, leafB: stale} {
		if err := d.WriteSectors(addr, img); err != nil {
			t.Fatal(err)
		}
	}

	v, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if ms.SweepPages != int(allocated)+1 || ms.SweepFallbacks != 0 {
		t.Fatalf("the planted page was not swept as a verified page: %+v (allocated %d)", ms, allocated+1)
	}
	for _, r := range ghost.Runs {
		if !v.vm.IsFree(int(r.Start)) {
			t.Fatalf("sector %d of the deleted file is allocated: the unreachable leaf contributed to the rebuild", r.Start)
		}
	}
	checkRebuildMatchesChainWalk(t, v)
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify: %v %v", err, vs.Problems)
	}
}

// scrubNameTablePerPage is the reference scrubNameTable replaced: every page
// examined on its own, both copies read page by page.
func scrubNameTablePerPage(v *Volume, st *ScrubStats) {
	for id := 0; id < v.lay.ntPages; id++ {
		st.NTPagesChecked++
		st.SectorsChecked += 2 * NTPageSectors
		v.scrubNTPage(uint32(id), st)
	}
}

// TestScrubSweepMatchesPerPage: under seeded, pre-planted decay — latent
// errors and silent rot in either copy, a few pages lost in both — the
// sweep-based name-table pass reports exactly what the per-page reference
// reports (problem order, counts, repairs) and leaves the same bytes on the
// platters, at widths 1, 2 and 8.
func TestScrubSweepMatchesPerPage(t *testing.T) {
	seed := faultSeed(t)
	run := func(workers int, pass func(v *Volume, st *ScrubStats)) (ScrubStats, []byte) {
		cfg := testConfig()
		cfg.ScrubWorkers = workers
		v, d, _ := newTestVolumeWith(t, cfg)
		churn(t, v, rand.New(rand.NewSource(13)))
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
		// Pre-planted damage only: live fault probabilities would draw
		// from the PRNG in scheduling order.
		rng := rand.New(rand.NewSource(seed))
		ids := allocatedNTPages(t, v, d)
		for i, id := range ids {
			if i%3 != 0 {
				continue
			}
			a, b := v.lay.ntPageAddrs(id)
			hit := func(addr int) {
				if rng.Intn(2) == 0 {
					d.CorruptSectors(addr, 1)
				} else {
					d.SmashSector(addr, payload(disk.SectorSize, 0x5A), nil)
				}
			}
			switch i / 3 % 5 {
			case 0: // lost in both copies
				hit(a + rng.Intn(NTPageSectors))
				hit(b + rng.Intn(NTPageSectors))
			case 1, 2:
				hit(a + rng.Intn(NTPageSectors))
			default:
				hit(b + rng.Intn(NTPageSectors))
			}
		}
		var st ScrubStats
		pass(v, &st)
		st.NTElapsed = 0
		region, err := d.ReadSectors(v.lay.ntA, v.lay.vamBase-v.lay.ntA) // both copies and the skew between them
		if err != nil {
			// Pages lost in both copies stay unreadable; compare sector-wise.
			region = nil
			for s := 0; s < v.lay.vamBase-v.lay.ntA; s++ {
				buf, err := d.ReadSectors(v.lay.ntA+s, 1)
				if err != nil {
					buf = bytes.Repeat([]byte{0xEE}, disk.SectorSize)
				}
				region = append(region, buf...)
			}
		}
		return st, region
	}
	want, wantRegion := run(1, scrubNameTablePerPage)
	if want.NTRepaired == 0 || want.NTLost == 0 || len(want.Problems) != want.NTLost {
		t.Fatalf("reference pass saw no repairs or no losses; the decay is not exercising the scrub: %+v", want)
	}
	for _, workers := range []int{1, 2, 8} {
		got, region := run(workers, func(v *Volume, st *ScrubStats) {
			if err := v.scrubNameTable(st); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep scrub reports\n%+v\nper-page reference reports\n%+v", workers, got, want)
		}
		if !bytes.Equal(region, wantRegion) {
			t.Fatalf("workers=%d: name-table regions differ from the per-page reference after the pass", workers)
		}
	}
}

// TestNTSweepReadCounts is the gate that keeps the name-table passes
// sequential: on an undamaged volume a crash mount's VAM rebuild may issue
// at most two reads per 16-page run of the allocated table (plus slack for
// the tree open), and a clean scrub's name-table pass at most two per run of
// the whole table. A per-page reader costs two reads per page.
func TestNTSweepReadCounts(t *testing.T) {
	v, d, _ := newTestVolume(t)
	churn(t, v, rand.New(rand.NewSource(3)))
	v.Crash()
	d.Revive()
	before := d.Stats()
	v2, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	allocated := v2.nt.AllocatedPages()
	runs := func(pages int) int { return (pages + ntSweepPages - 1) / ntSweepPages }
	if ms.SweepFallbacks != 0 || ms.SweepChunks > 2*runs(allocated) {
		t.Fatalf("mount swept %d pages in %d chunk reads with %d fallbacks, want at most %d and none",
			ms.SweepPages, ms.SweepChunks, ms.SweepFallbacks, 2*runs(allocated))
	}
	// The whole crash mount: root, log replay, and the rebuild. The replay's
	// share is its sector count at worst (it reads whole records).
	mountReads := d.Stats().Sub(before).Reads
	if limit := 2*runs(allocated) + 8 + v2.Stats().Recovery.SectorsRead; mountReads > limit {
		t.Fatalf("crash mount of a %d-page table issued %d reads, want at most %d", allocated, mountReads, limit)
	}
	// The rebuild phase on its own, cache and all.
	before = d.Stats()
	if _, _, err := v2.scanForRebuild(true); err != nil {
		t.Fatal(err)
	}
	if got, limit := d.Stats().Sub(before).Reads, 2*runs(allocated)+8; got > limit {
		t.Fatalf("VAM rebuild of a %d-page table issued %d reads, want at most %d", allocated, got, limit)
	}
	before = d.Stats()
	var st ScrubStats
	if err := v2.scrubNameTable(&st); err != nil {
		t.Fatal(err)
	}
	if got, limit := d.Stats().Sub(before).Reads, 2*runs(v2.lay.ntPages); got > limit || st.Repaired() != 0 {
		t.Fatalf("clean name-table scrub of %d pages issued %d reads (%d repairs), want at most %d and none",
			v2.lay.ntPages, got, st.Repaired(), limit)
	}
}
