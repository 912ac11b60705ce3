package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// growFile builds an Extend-grown file — which the allocator lengthens in
// place, so it is its leader's run and one data run — filled with data.
func growFile(t *testing.T, v *Volume, name string, pages int) *File {
	t.Helper()
	f, err := v.Create(name, payload(disk.SectorSize, 3))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for f.Pages() < pages {
		if err := f.Extend(8); err != nil {
			t.Fatalf("Extend: %v", err)
		}
	}
	if err := f.WritePages(0, payload(f.Pages()*disk.SectorSize, 5)); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	if err := v.Force(); err != nil {
		t.Fatalf("Force: %v", err)
	}
	return f
}

// seqReads reads the file sequentially in 8-page chunks and returns the disk
// read requests issued in the window.
func seqReads(t *testing.T, v *Volume, d *disk.Disk, f *File) int {
	t.Helper()
	// Verify the leader outside the window, then start from cold caches.
	if _, err := f.ReadPages(0, 1); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	v.DropCaches()
	before := d.Stats()
	for p := 0; p < f.Pages(); p += 8 {
		n := 8
		if p+n > f.Pages() {
			n = f.Pages() - p
		}
		if _, err := f.ReadPages(p, n); err != nil {
			t.Fatalf("ReadPages(%d,%d): %v", p, n, err)
		}
	}
	return d.Stats().Sub(before).Reads
}

// TestSequentialReadCoalescing: a sequential scan of a file grown 8 pages at
// a time must issue at least 4x fewer disk read requests with the cache than
// the raw path, which issues one per chunk read.
func TestSequentialReadCoalescing(t *testing.T) {
	run := func(cachePages int) int {
		clk := sim.NewVirtualClock()
		d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.DataCachePages = cachePages
		v, err := Format(d, cfg)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		f := growFile(t, v, "seq/big", 200)
		if runs := f.Entry().Runs; len(runs) != 2 {
			t.Fatalf("file grown by Extend has runs %v; want the leader's and one data run", runs)
		}
		return seqReads(t, v, d, f)
	}
	raw := run(-1)
	cached := run(0)
	t.Logf("sequential scan: %d raw read requests, %d cached", raw, cached)
	if cached == 0 || raw < 4*cached {
		t.Fatalf("cached path issued %d read requests vs %d raw; want >= 4x reduction", cached, raw)
	}
}

// TestRereadHitRate: after one warming pass, repeated whole-file reads must
// be served from the cache — >= 90% hit rate and zero disk reads in the
// measurement window.
func TestRereadHitRate(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("hot", payload(64*disk.SectorSize, 9))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.ReadAll(); err != nil {
		t.Fatalf("warm ReadAll: %v", err)
	}
	before := v.Stats()
	for i := 0; i < 10; i++ {
		if _, err := f.ReadAll(); err != nil {
			t.Fatalf("ReadAll %d: %v", i, err)
		}
	}
	after := v.Stats()
	if reads := after.Disk.Sub(before.Disk).Reads; reads != 0 {
		t.Errorf("re-reads issued %d disk reads; want 0", reads)
	}
	hits := after.Cache.Data.Hits - before.Cache.Data.Hits
	misses := after.Cache.Data.Misses - before.Cache.Data.Misses
	if hits+misses == 0 {
		t.Fatal("no data-cache activity recorded")
	}
	rate := float64(hits) / float64(hits+misses)
	t.Logf("re-read window: %d hits, %d misses (%.0f%%)", hits, misses, rate*100)
	if rate < 0.9 {
		t.Fatalf("re-read hit rate %.0f%%; want >= 90%%", rate*100)
	}
	_ = d
}

// TestOverwriteVisibleThroughCache: a write must update (not stale-hit) any
// cached frames of the overwritten pages.
func TestOverwriteVisibleThroughCache(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("over", payload(16*disk.SectorSize, 1))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.ReadAll(); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	next := payload(16*disk.SectorSize, 77)
	if err := f.WritePages(0, next); err != nil {
		t.Fatalf("WritePages: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("read after overwrite returned stale cached data")
	}
}

// TestDeleteInvalidatesDataCache: after a delete commits and the sectors are
// reallocated to a new file, reads of the new file must not see the old
// file's cached frames.
func TestDeleteInvalidatesDataCache(t *testing.T) {
	v, _, _ := newTestVolume(t)
	a, err := v.Create("reuse/a", payload(32*disk.SectorSize, 10))
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	aRuns := a.Entry().Runs
	if _, err := a.ReadAll(); err != nil {
		t.Fatalf("ReadAll a: %v", err)
	}
	if err := v.Delete("reuse/a", 0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := v.Force(); err != nil {
		t.Fatalf("Force: %v", err)
	}
	bData := payload(32*disk.SectorSize, 200)
	b, err := v.Create("reuse/b", bData)
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	// First-fit from the bottom: b must land on a's freed sectors, or the
	// test is not exercising reuse.
	if b.Entry().Runs[0].Start != aRuns[0].Start {
		t.Fatalf("b allocated at %d, want a's freed sectors at %d", b.Entry().Runs[0].Start, aRuns[0].Start)
	}
	got, err := b.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll b: %v", err)
	}
	if !bytes.Equal(got, bData) {
		t.Fatal("read of reallocated sectors returned the deleted file's cached data")
	}
}

// TestDamageInvalidatesDataCache: injected damage must evict cached frames
// so scrub-style reads see the disk, not a stale copy of lost bytes.
func TestDamageInvalidatesDataCache(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("dmg", payload(8*disk.SectorSize, 4))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Home first: a held frame outlives damage (TestDamageKeepsHeldFrames).
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll(); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	e := f.Entry()
	addr, _, err := e.ContiguousFrom(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(addr, 1)
	if _, err := f.ReadAll(); err == nil {
		t.Fatal("read of corrupted sector succeeded — served from stale cache")
	}
}

// TestDataCacheDisabled: a negative DataCachePages must run the raw path
// with no cache counters.
func TestDataCacheDisabled(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.DataCachePages = -1
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	data := payload(16*disk.SectorSize, 6)
	f, err := v.Create("nocache", data)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	dc := v.Stats().Cache.Data
	if dc.Capacity != 0 || dc.Hits != 0 || dc.Misses != 0 {
		t.Fatalf("disabled cache reported activity: %+v", dc)
	}
}

// TestCachedReadsRaceWrites hammers cached reads against concurrent
// overwrites and a delete/recreate of a sibling file. Run under -race this
// checks the per-frame locking; the final content check catches stale fills
// racing the write-through updates.
func TestCachedReadsRaceWrites(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("race/target", payload(64*disk.SectorSize, 1))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const iters = 150
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := f.ReadPages((r*13+i*7)%56, 8); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
			errCh <- nil
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := f.WritePages((i*11)%48, payload(16*disk.SectorSize, byte(i))); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
		errCh <- nil
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			name := fmt.Sprintf("race/churn%d", i%3)
			if _, err := v.Create(name, payload(8*disk.SectorSize, byte(i))); err != nil {
				errCh <- fmt.Errorf("churn create: %w", err)
				return
			}
			if err := v.Delete(name, 0); err != nil {
				errCh <- fmt.Errorf("churn delete: %w", err)
				return
			}
		}
		errCh <- nil
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	final := payload(64*disk.SectorSize, 123)
	if err := f.WritePages(0, final); err != nil {
		t.Fatalf("final write: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatalf("final ReadAll: %v", err)
	}
	if !bytes.Equal(got, final) {
		t.Fatal("final read disagrees with last write: stale cache frame survived the race")
	}
}
