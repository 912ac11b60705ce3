package alloc

import (
	"math/rand"
	"testing"

	"repro/internal/vam"
)

// newCentreAllocator is an allocator whose metadata sits at the boundary, as
// on FSD's centre layout: the small area is the quarter of the region below
// it, the big area the rest above.
func newCentreAllocator(t *testing.T, pages int) (*Allocator, *vam.VAM) {
	t.Helper()
	v := vam.New(pages)
	v.MarkFree(0, pages)
	a, err := New(v, Config{Lo: 0, Hi: pages, SmallThreshold: 8, Boundary: pages / 4, SmallFromBoundary: true})
	if err != nil {
		t.Fatal(err)
	}
	return a, v
}

// TestSmallAllocFillsDownFromBoundary: with SmallFromBoundary, successive
// small files are packed below the boundary, each ending where the last
// began, while a big file still comes from the top of the region.
func TestSmallAllocFillsDownFromBoundary(t *testing.T) {
	a, _ := newCentreAllocator(t, 10000)
	b := a.Config().boundary()
	next := b
	for i, n := range []int{2, 3, 1, 8, 4} {
		runs, err := a.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || int(runs[0].Len) != n {
			t.Fatalf("alloc %d: runs %v", i, runs)
		}
		if got := int(runs[0].Start + runs[0].Len); got != next {
			t.Fatalf("alloc %d of %d pages ends at %d; want %d, packed below the boundary %d", i, n, got, next, b)
		}
		next = int(runs[0].Start)
	}
	// A big file still comes from the top of the region.
	big, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if end := int(big[0].Start + big[0].Len); end != 10000 {
		t.Fatalf("big file ends at %d, not the region top", end)
	}
}

// TestSmallAllocReusesHoleNearBoundary: of two freed holes, the next small
// file takes the top of the one nearest the boundary.
func TestSmallAllocReusesHoleNearBoundary(t *testing.T) {
	a, _ := newCentreAllocator(t, 10000)
	var files [][]Run
	for i := 0; i < 20; i++ {
		runs, err := a.Alloc(3)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, runs)
	}
	// Free the second file from the boundary and one far below it: the
	// next small file goes into the hole nearest the metadata.
	near, far := files[1], files[15]
	a.FreeNow(near)
	a.FreeNow(far)
	runs, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := near[0].Start + near[0].Len - 2; runs[0].Start != want {
		t.Fatalf("2-page file at %d; want %d, the top of the freed hole nearest the boundary", runs[0].Start, want)
	}
}

// TestSmallAllocFromBoundarySpillsToBigArea: with the small area full, a
// small file spills upward, to the first fit above the boundary.
func TestSmallAllocFromBoundarySpillsToBigArea(t *testing.T) {
	a, v := newCentreAllocator(t, 1000)
	b := a.Config().boundary()
	v.MarkAllocated(0, b)
	runs, err := a.Alloc(2)
	if err != nil {
		t.Fatalf("small alloc with full small area: %v", err)
	}
	if int(runs[0].Start) != b {
		t.Fatalf("spilled small file at %d; want %d, the first fit above the boundary", runs[0].Start, b)
	}
}

// TestSmallFirstFitOrigin churns small files and deletes through both rules
// and checks every single-run small allocation against a page-at-a-time
// search of the small area: the zero value takes the lowest hole that fits —
// the placement the small area always had — and SmallFromBoundary the top
// pages of the highest.
func TestSmallFirstFitOrigin(t *testing.T) {
	for _, fromBoundary := range []bool{false, true} {
		const pages = 6000
		v := vam.New(pages)
		v.MarkFree(0, pages)
		a, err := New(v, Config{Lo: 0, Hi: pages, SmallThreshold: 8, SmallFromBoundary: fromBoundary})
		if err != nil {
			t.Fatal(err)
		}
		b := a.Config().boundary()
		rng := rand.New(rand.NewSource(3))
		var live [][]Run
		var pending []Run // freed by a delete whose commit is still to come
		for i := 0; i < 3000; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				pending = append(pending, live[k]...)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				if i%5 == 0 {
					a.FreeNow(pending)
					pending = nil
				}
				continue
			}
			n := 1 + rng.Intn(8)
			want := firstFit(v, n, 0, b, fromBoundary)
			runs, err := a.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			if want >= 0 && (len(runs) != 1 || int(runs[0].Start) != want) {
				t.Fatalf("fromBoundary=%v, alloc %d of %d pages: runs %v, want one run at %d", fromBoundary, i, n, runs, want)
			}
			live = append(live, runs)
		}
	}
}

// firstFit is the page-at-a-time statement of the small area's rule: the
// start of the lowest n free pages in [lo, hi), or with down the top n pages
// of the highest free stretch that holds n; -1 when none does.
func firstFit(v *vam.VAM, n, lo, hi int, down bool) int {
	if down {
		run := 0
		for p := hi - 1; p >= lo; p-- {
			if !v.IsFree(p) {
				run = 0
				continue
			}
			if run++; run == n {
				return p // the n pages from the stretch's top down to p
			}
		}
		return -1
	}
	run := 0
	for p := lo; p < hi; p++ {
		if !v.IsFree(p) {
			run = 0
			continue
		}
		if run++; run == n {
			return p - n + 1
		}
	}
	return -1
}
