package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/disk"
)

// populate creates n small files and forces them durable, returning the
// contents.
func populate(t *testing.T, v *Volume, n int) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("scrub/f%03d", i)
		data := payload(200+i*37, byte(i))
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	return files
}

// allocatedNTPages lists the ids of non-virgin name-table pages by reading
// the primary home copies directly.
func allocatedNTPages(t *testing.T, v *Volume, d *disk.Disk) []uint32 {
	t.Helper()
	var ids []uint32
	for id := 0; id < v.lay.ntPages; id++ {
		a, _ := v.lay.ntPageAddrs(uint32(id))
		buf, err := d.ReadSectors(a, NTPageSectors)
		if err != nil {
			t.Fatalf("NT page %d unreadable before corruption: %v", id, err)
		}
		if !isVirgin(buf) {
			ids = append(ids, uint32(id))
		}
	}
	if len(ids) == 0 {
		t.Fatal("no allocated name-table pages")
	}
	return ids
}

// checkNTCopies asserts every name-table page has two valid, identical home
// copies.
func checkNTCopies(t *testing.T, v *Volume, d *disk.Disk) {
	t.Helper()
	for id := 0; id < v.lay.ntPages; id++ {
		a, b := v.lay.ntPageAddrs(uint32(id))
		bufA, errA := d.ReadSectors(a, NTPageSectors)
		bufB, errB := d.ReadSectors(b, NTPageSectors)
		if !ntCopyOK(bufA, errA) || !ntCopyOK(bufB, errB) {
			t.Fatalf("NT page %d still decayed (A: %v, B: %v)", id, errA, errB)
		}
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("NT page %d copies diverge after scrub", id)
		}
	}
}

// TestScrubRepairsLatentDecay is the issue's acceptance scenario: decay one
// copy of every duplicated page — every allocated name-table page, the root
// replica, a log anchor copy, a log record header copy — plus one leader,
// and check a single scrub pass repairs everything.
func TestScrubRepairsLatentDecay(t *testing.T) {
	rng := faultRNG(t)
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := populate(t, v, 30)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ids := allocatedNTPages(t, v, d)
	for _, id := range ids {
		a, b := v.lay.ntPageAddrs(id)
		victim := a + rng.Intn(NTPageSectors)
		if rng.Intn(2) == 1 {
			victim = b + rng.Intn(NTPageSectors)
		}
		if rng.Intn(2) == 1 {
			// Hard latent error: the read fails.
			d.CorruptSectors(victim, 1)
		} else {
			// Silent bit rot: the read succeeds with garbage.
			d.SmashSector(victim, payload(disk.SectorSize, 0xA5), nil)
		}
	}
	d.CorruptSectors(v.lay.rootB, 1)     // root replica
	d.CorruptSectors(v.lay.logBase+2, 1) // log anchor copy
	d.CorruptSectors(v.lay.logBase+6, 1) // first log record's header copy
	var leaderAddr int
	for name := range files {
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		ent := f.Entry()
		leaderAddr, _ = ent.LeaderAddr()
		break
	}
	d.CorruptSectors(leaderAddr, 1)

	st, err := v.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if st.NTLost != 0 || len(st.Problems) != 0 {
		t.Fatalf("scrub lost pages: NTLost=%d problems=%v", st.NTLost, st.Problems)
	}
	if st.NTRepaired < len(ids) {
		t.Fatalf("NTRepaired = %d, want >= %d", st.NTRepaired, len(ids))
	}
	if st.RootsRepaired != 1 {
		t.Fatalf("RootsRepaired = %d, want 1", st.RootsRepaired)
	}
	if st.LogRepaired < 2 {
		t.Fatalf("LogRepaired = %d, want >= 2 (anchor copy + header copy)", st.LogRepaired)
	}
	if st.LeadersRepaired < 1 {
		t.Fatalf("LeadersRepaired = %d, want >= 1", st.LeadersRepaired)
	}

	// A second pass finds a fully healthy volume.
	st2, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Repaired() != 0 || len(st2.Problems) != 0 {
		t.Fatalf("second scrub still repairing: %+v", st2)
	}
	checkNTCopies(t, v, d)
	vs, err := v.Verify()
	if err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after scrub: %v %v", err, vs.Problems)
	}
	for name, want := range files {
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted after scrub: %v", name, err)
		}
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, ms, err := Mount(d, testConfig()); err != nil || !ms.CleanShutdown {
		t.Fatalf("remount after scrub: %v (clean=%v)", err, ms.CleanShutdown)
	}
}

// TestScrubSweepsAllocatedPrefix: the name-table pass sweeps [0,
// AllocatedPages()) and not a page past it. On a table whose allocated count
// is not a multiple of the sweep's 16-page run, a decayed copy of the last
// allocated page is repaired, a decayed copy of a page past the prefix is
// left as it is (nothing lives there), no read in either copy reaches the
// prefix's end, and NTPagesChecked is the prefix.
func TestScrubSweepsAllocatedPrefix(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	for i := 0; v.nt.AllocatedPages() <= ntSweepPages || v.nt.AllocatedPages()%ntSweepPages == 0; i++ {
		if i == 5000 {
			t.Fatalf("%d creates and the table has %d pages", i, v.nt.AllocatedPages())
		}
		if _, err := v.Create(fmt.Sprintf("prefix/d%02d/a-longish-file-name-%05d", i%7, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	pages := v.nt.AllocatedPages()
	if pages+3 >= v.lay.ntPages {
		t.Fatalf("the table's %d allocated pages leave no page past them of %d", pages, v.lay.ntPages)
	}
	lastA, _ := v.lay.ntPageAddrs(uint32(pages - 1))
	_, pastB := v.lay.ntPageAddrs(uint32(pages + 2))
	d.CorruptSectors(lastA+NTPageSectors-1, 1)
	d.CorruptSectors(pastB, 1)
	endA, endB := v.lay.ntPageAddrs(uint32(pages))
	var beyond []int
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if e.Write {
			return
		}
		switch r := v.lay.region(e.Addr + e.Sectors - 1); {
		case r == regionNTA && e.Addr+e.Sectors > endA, r == regionNTB && e.Addr+e.Sectors > endB:
			beyond = append(beyond, e.Addr)
		}
	})
	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.NTPagesChecked != pages || st.NTRepaired != 1 || st.NTLost != 0 || len(st.Problems) != 0 {
		t.Fatalf("scrub of a %d-page table: checked %d pages, repaired %d, lost %d, problems %v; want %d, 1, 0, none",
			pages, st.NTPagesChecked, st.NTRepaired, st.NTLost, st.Problems, pages)
	}
	if len(beyond) != 0 {
		t.Fatalf("scrub read name-table sectors at or past the allocated prefix (copy A ends at %d, copy B at %d): reads at %v", endA, endB, beyond)
	}
	if d.IsDamaged(lastA+NTPageSectors-1) || !d.IsDamaged(pastB) {
		t.Fatalf("after the scrub: last allocated page's copy A damaged %v (want repaired), page past the prefix damaged %v (want untouched)",
			d.IsDamaged(lastA+NTPageSectors-1), d.IsDamaged(pastB))
	}
}

// TestScrubRetiresStuckSectors drives the bounded-retry → remap path: a
// sector that stays damaged through rewrites is retired to the spare pool.
func TestScrubRetiresStuckSectors(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	populate(t, v, 10)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ids := allocatedNTPages(t, v, d)
	_, b := v.lay.ntPageAddrs(ids[0])
	spares := d.SparesLeft()
	d.MarkStuck(b, 1)

	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired < 1 {
		t.Fatalf("Retired = %d, want >= 1", st.Retired)
	}
	if !d.IsRemapped(b) {
		t.Fatalf("sector %d not remapped", b)
	}
	if left := d.SparesLeft(); left != spares-st.Retired {
		t.Fatalf("SparesLeft = %d, want %d", left, spares-st.Retired)
	}
	if fs := v.Stats().Faults; fs.Retired < 1 || fs.Scrubs != 1 {
		t.Fatalf("FaultStats = %+v", fs)
	}
	checkNTCopies(t, v, d)
	st2, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Repaired() != 0 || st2.Retired != 0 {
		t.Fatalf("second scrub still repairing: %+v", st2)
	}
}

// TestReadRetryTransient injects a high rate of transient read faults and
// checks the bounded in-place retry absorbs all of them invisibly.
func TestReadRetryTransient(t *testing.T) {
	seed := faultSeed(t)
	cfg := testConfig()
	cfg.ReadRetries = 8
	v, d, _ := newTestVolumeWith(t, cfg)
	files := populate(t, v, 20)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(disk.FaultConfig{Seed: seed, TransientRead: 0.1})
	for pass := 0; pass < 2; pass++ {
		for name, want := range files {
			f, err := v.Open(name, 0)
			if err != nil {
				t.Fatalf("Open %s under transient faults: %v", name, err)
			}
			got, err := f.ReadAll()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadAll %s under transient faults: %v", name, err)
			}
		}
		if err := v.DropCaches(); err != nil {
			t.Fatal(err)
		}
	}
	fs := v.Stats().Faults
	if fs.ReadRetries == 0 || fs.RetriedOK == 0 {
		t.Fatalf("no retries recorded under 10%% transient faults: %+v", fs)
	}
	d.ClearFaults()
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify: %v %v", err, vs.Problems)
	}
}

// TestScrubConcurrentWithReaders runs scrub passes, the shared-monitor read
// path, and an active corruptor concurrently (the -race stress for the
// scrub locking), then checks a final pass heals every remaining wound.
func TestScrubConcurrentWithReaders(t *testing.T) {
	seed := faultSeed(t)
	cfg := testConfig()
	cfg.ScrubWorkers = 4
	v, d, _ := newTestVolumeWith(t, cfg)
	files := populate(t, v, 30)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ids := allocatedNTPages(t, v, d)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := names[rng.Intn(len(names))]
				f, err := v.Open(name, 0)
				if err != nil {
					errCh <- fmt.Errorf("Open %s: %v", name, err)
					return
				}
				if _, err := f.ReadAll(); err != nil {
					errCh <- fmt.Errorf("ReadAll %s: %v", name, err)
					return
				}
			}
		}(seed + int64(r))
	}
	wg.Add(1)
	go func() {
		// Corruptor: decays primary-copy sectors only, so readers always
		// have the replica to fall back on.
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 200; i++ {
			id := ids[rng.Intn(len(ids))]
			a, _ := v.lay.ntPageAddrs(id)
			d.CorruptSectors(a+rng.Intn(NTPageSectors), 1)
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := v.Scrub(); err != nil {
					errCh <- fmt.Errorf("Scrub: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.NTLost != 0 {
		t.Fatalf("pages lost during concurrent scrub: %+v", st)
	}
	checkNTCopies(t, v, d)
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify: %v %v", err, vs.Problems)
	}
	for name, want := range files {
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted: %v", name, err)
		}
	}
}
