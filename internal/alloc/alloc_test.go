package alloc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vam"
)

func newTestAllocator(t *testing.T, pages int) (*Allocator, *vam.VAM) {
	t.Helper()
	v := vam.New(pages)
	v.MarkFree(0, pages)
	a, err := New(v, Config{Lo: 0, Hi: pages, SmallThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	return a, v
}

func TestSmallAllocGoesLow(t *testing.T) {
	a, _ := newTestAllocator(t, 10000)
	runs, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Len != 4 {
		t.Fatalf("runs = %v", runs)
	}
	if runs[0].Start >= uint32(a.Config().boundary()) {
		t.Fatalf("small file allocated at %d, above boundary %d", runs[0].Start, a.Config().boundary())
	}
}

func TestBigAllocGoesHigh(t *testing.T) {
	a, _ := newTestAllocator(t, 10000)
	runs, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("big alloc fragmented: %v", runs)
	}
	if int(runs[0].Start) < a.Config().boundary() {
		t.Fatalf("big file allocated at %d, below boundary %d", runs[0].Start, a.Config().boundary())
	}
	// Big files grow downward: the run should end at the region top.
	if int(runs[0].Start+runs[0].Len) != 10000 {
		t.Fatalf("big file not at region top: %v", runs)
	}
}

func TestAllocMarksVAM(t *testing.T) {
	a, v := newTestAllocator(t, 1000)
	before := v.FreeCount()
	runs, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if v.FreeCount() != before-10 {
		t.Fatalf("FreeCount %d, want %d", v.FreeCount(), before-10)
	}
	for _, r := range runs {
		for i := r.Start; i < r.Start+r.Len; i++ {
			if v.IsFree(int(i)) {
				t.Fatal("allocated page still free")
			}
		}
	}
}

func TestAllocSpillsToOtherArea(t *testing.T) {
	// Fill the small area completely; a small alloc must spill into the
	// big area rather than fail.
	a, v := newTestAllocator(t, 1000)
	b := a.Config().boundary()
	v.MarkAllocated(0, b)
	runs, err := a.Alloc(2)
	if err != nil {
		t.Fatalf("small alloc with full small area: %v", err)
	}
	if int(runs[0].Start) < b {
		t.Fatal("allocated inside the full area")
	}
}

func TestAllocFragmented(t *testing.T) {
	a, v := newTestAllocator(t, 1000)
	// Punch allocated holes so no run of 100 exists anywhere.
	for p := 0; p < 1000; p += 50 {
		v.MarkAllocated(p, 10)
	}
	runs, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("fragmented alloc: %v", err)
	}
	if len(runs) < 2 {
		t.Fatalf("expected multiple runs, got %v", runs)
	}
	if Pages(runs) != 100 {
		t.Fatalf("allocated %d pages, want 100", Pages(runs))
	}
}

// TestAllocJoinsAcrossBoundary holds the run-table invariant where Alloc
// makes a table: free space that straddles the area boundary is found as two
// pieces, one per area, and the pieces meet on the disk, so they come back as
// one run.
func TestAllocJoinsAcrossBoundary(t *testing.T) {
	v := vam.New(1000)
	v.MarkFree(497, 6)
	a, err := New(v, Config{Lo: 0, Hi: 1000, Boundary: 500, SmallThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := a.Alloc(6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Run{{Start: 497, Len: 6}}; !slices.Equal(runs, want) {
		t.Fatalf("Alloc(6) across the boundary = %v, want %v", runs, want)
	}
}

func TestAllocNoSpace(t *testing.T) {
	a, v := newTestAllocator(t, 100)
	v.MarkAllocated(0, 100)
	if _, err := a.Alloc(1); !errors.Is(err, vam.ErrNoSpace) {
		t.Fatalf("alloc on full volume: %v", err)
	}
}

func TestAllocTooFragmentedForMaxRuns(t *testing.T) {
	v := vam.New(1000)
	// One free page every other page: 500 free, max run 1.
	for p := 0; p < 1000; p += 2 {
		v.MarkFree(p, 1)
	}
	a, err := New(v, Config{Lo: 0, Hi: 1000, SmallThreshold: 8, MaxRuns: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := v.FreeCount()
	if _, err := a.Alloc(100); !errors.Is(err, ErrFragmented) {
		t.Fatalf("alloc needing 100 runs with MaxRuns=4: %v, want ErrFragmented", err)
	}
	if v.FreeCount() != before {
		t.Fatal("failed alloc leaked pages")
	}
}

func TestFreeNow(t *testing.T) {
	a, v := newTestAllocator(t, 1000)
	runs, _ := a.Alloc(20)
	free0 := v.FreeCount()
	a.FreeNow(runs)
	if v.FreeCount() != free0+20 {
		t.Fatal("FreeNow did not free")
	}
}

func TestBadConfigRejected(t *testing.T) {
	v := vam.New(100)
	if _, err := New(v, Config{Lo: 50, Hi: 20}); err == nil {
		t.Fatal("inverted region accepted")
	}
	if _, err := New(v, Config{Lo: 0, Hi: 200}); err == nil {
		t.Fatal("oversized region accepted")
	}
}

func TestSmallBigSeparationReducesFragmentation(t *testing.T) {
	// The paper's motivation: interleaving small files among big ones
	// breaks up large free blocks. With areas on, deleting big files
	// should leave large contiguous holes.
	const pages = 20000
	a, v := newTestAllocator(t, pages)
	rng := rand.New(rand.NewSource(1))
	type file struct{ runs []Run }
	var smalls, bigs []file
	for i := 0; i < 200; i++ {
		if s, err := a.Alloc(1 + rng.Intn(4)); err == nil {
			smalls = append(smalls, file{s})
		}
		if i%4 == 0 {
			if bg, err := a.Alloc(100 + rng.Intn(100)); err == nil {
				bigs = append(bigs, file{bg})
			}
		}
	}
	// Delete all big files.
	for _, f := range bigs {
		a.FreeNow(f.runs)
	}
	// The largest free run should be big-file sized, not shredded by
	// small files.
	if _, lr := v.FindRun(pages+1, 0, pages, 1); lr < 100 { // no fit: the largest run
		t.Fatalf("largest free run %d after freeing big files; areas failed to prevent fragmentation", lr)
	}
}

// Property: Alloc never double-allocates and Pages(runs) always equals the
// request; freeing everything restores the free count.
func TestQuickAllocFreeConsistent(t *testing.T) {
	f := func(sizes []uint8) bool {
		const pages = 8192
		v := vam.New(pages)
		v.MarkFree(0, pages)
		a, err := New(v, Config{Lo: 0, Hi: pages, SmallThreshold: 8})
		if err != nil {
			return false
		}
		used := map[uint32]bool{}
		var all [][]Run
		for _, s := range sizes {
			n := int(s)%64 + 1
			runs, err := a.Alloc(n)
			if err != nil {
				continue
			}
			if Pages(runs) != n {
				return false
			}
			for _, r := range runs {
				for p := r.Start; p < r.Start+r.Len; p++ {
					if used[p] {
						return false // double allocation
					}
					used[p] = true
				}
			}
			all = append(all, runs)
		}
		for _, runs := range all {
			a.FreeNow(runs)
		}
		return v.FreeCount() == pages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnSoak runs thousands of allocate/free cycles with the paper's
// size distribution on a small region and checks the allocator neither
// leaks nor deadlocks on fragmentation: at steady state every allocation
// that fits in the free count succeeds (possibly fragmented), and freeing
// everything restores the initial state exactly.
func TestChurnSoak(t *testing.T) {
	const pages = 30000
	v := vam.New(pages)
	v.MarkFree(0, pages)
	a, err := New(v, Config{Lo: 0, Hi: pages, SmallThreshold: 8, MaxRuns: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	type alloced struct{ runs []Run }
	var live []alloced
	var pending []Run // freed by a delete whose commit is still to come
	commit := func() {
		a.FreeNow(pending)
		pending = nil
	}
	liveBytes := 0
	for i := 0; i < 6000; i++ {
		if len(live) > 0 && (rng.Intn(3) == 0 || liveBytes > pages*3/4) {
			k := rng.Intn(len(live))
			pending = append(pending, live[k].runs...)
			liveBytes -= Pages(live[k].runs)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if i%7 == 0 {
				commit()
			}
			continue
		}
		n := 1 + rng.Intn(60)
		if n > v.FreeCount() {
			continue
		}
		runs, err := a.Alloc(n)
		if err != nil {
			// Acceptable only if fragmentation exceeds MaxRuns; the
			// request must genuinely not fit in 64 pieces.
			if _, l := v.FindRun(n, 0, pages, 1); l >= n {
				t.Fatalf("iter %d: alloc(%d) failed with a contiguous run available: %v", i, n, err)
			}
			continue
		}
		if Pages(runs) != n {
			t.Fatalf("iter %d: got %d pages, want %d", i, Pages(runs), n)
		}
		live = append(live, alloced{runs})
		liveBytes += n
	}
	// Tear down completely.
	for _, l := range live {
		a.FreeNow(l.runs)
	}
	commit()
	if v.FreeCount() != pages {
		t.Fatalf("leak: %d free of %d after full teardown", v.FreeCount(), pages)
	}
}
