package vam

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/sim"
)

func TestNewAllAllocated(t *testing.T) {
	v := New(1000)
	if v.FreeCount() != 0 {
		t.Fatalf("FreeCount = %d, want 0", v.FreeCount())
	}
	if v.IsFree(0) || v.IsFree(999) {
		t.Fatal("pages free in new map")
	}
}

func TestMarkFreeAllocated(t *testing.T) {
	v := New(1000)
	v.MarkFree(100, 50)
	if v.FreeCount() != 50 {
		t.Fatalf("FreeCount = %d", v.FreeCount())
	}
	if !v.IsFree(100) || !v.IsFree(149) || v.IsFree(150) || v.IsFree(99) {
		t.Fatal("wrong pages freed")
	}
	// Double-free is idempotent.
	v.MarkFree(100, 50)
	if v.FreeCount() != 50 {
		t.Fatal("double MarkFree changed count")
	}
	v.MarkAllocated(120, 10)
	if v.FreeCount() != 40 || v.IsFree(125) {
		t.Fatal("MarkAllocated wrong")
	}
	v.MarkAllocated(120, 10)
	if v.FreeCount() != 40 {
		t.Fatal("double MarkAllocated changed count")
	}
}

func TestRangePanics(t *testing.T) {
	v := New(100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range MarkFree did not panic")
		}
	}()
	v.MarkFree(90, 20)
}

func TestFindRunUpward(t *testing.T) {
	v := New(1000)
	v.MarkFree(10, 5)
	v.MarkFree(100, 20)
	s, l := v.FindRun(10, 0, 1000, 1)
	if s != 100 || l != 10 {
		t.Fatalf("FindRun(10) = (%d,%d), want (100,10)", s, l)
	}
	// Smaller request takes the first adequate run.
	s, l = v.FindRun(3, 0, 1000, 1)
	if s != 10 || l != 3 {
		t.Fatalf("FindRun(3) = (%d,%d), want (10,3)", s, l)
	}
	// Impossible request returns the largest run.
	s, l = v.FindRun(50, 0, 1000, 1)
	if s != 100 || l != 20 {
		t.Fatalf("FindRun(50) = (%d,%d), want largest (100,20)", s, l)
	}
}

func TestFindRunDownward(t *testing.T) {
	v := New(1000)
	v.MarkFree(100, 20)
	v.MarkFree(500, 50)
	s, l := v.FindRun(10, 0, 1000, -1)
	if s != 540 || l != 10 {
		t.Fatalf("FindRun down = (%d,%d), want top pages (540,10)", s, l)
	}
}

func TestFindRunRespectsWindow(t *testing.T) {
	v := New(1000)
	v.MarkFree(0, 1000)
	s, l := v.FindRun(10, 200, 300, 1)
	if s != 200 || l != 10 {
		t.Fatalf("windowed FindRun = (%d,%d)", s, l)
	}
	s, l = v.FindRun(10, 200, 300, -1)
	if s != 290 || l != 10 {
		t.Fatalf("windowed downward FindRun = (%d,%d)", s, l)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	const n = 10000
	v := New(n)
	v.MarkFree(5, 100)
	v.MarkFree(9000, 500)
	base := 100
	if err := v.Save(d.WriteSectors, base); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(d.ReadSectorsInto, base, n)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.FreeCount() != v.FreeCount() {
		t.Fatalf("FreeCount %d != %d", got.FreeCount(), v.FreeCount())
	}
	for _, p := range []int{4, 5, 104, 105, 8999, 9000, 9499, 9500} {
		if got.IsFree(p) != v.IsFree(p) {
			t.Fatalf("page %d differs after reload", p)
		}
	}
}

func TestLoadRejectsUnsaved(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if _, err := Load(d.ReadSectorsInto, 100, 1000); !errors.Is(err, ErrNotSaved) {
		t.Fatalf("Load of unsaved area: %v", err)
	}
}

func TestInvalidateForcesReconstruction(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	const n = 1000
	v := New(n)
	v.MarkFree(0, n)
	if err := v.Save(d.WriteSectors, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(d.ReadSectorsInto, 50, n); err != nil {
		t.Fatal(err)
	}
	if err := Invalidate(d.WriteSectors, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(d.ReadSectorsInto, 50, n); !errors.Is(err, ErrNotSaved) {
		t.Fatalf("Load after Invalidate: %v", err)
	}
}

func TestLoadRejectsCorruptBitmap(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	const n = 100000 // several bitmap sectors
	v := New(n)
	v.MarkFree(0, n)
	if err := v.Save(d.WriteSectors, 50); err != nil {
		t.Fatal(err)
	}
	// Smash one bitmap sector silently; the checksum must catch it.
	d.SmashSector(52, make([]byte, disk.SectorSize), nil)
	if _, err := Load(d.ReadSectorsInto, 50, n); !errors.Is(err, ErrNotSaved) {
		t.Fatalf("Load of corrupt bitmap: %v", err)
	}
}

func TestLoadRejectsWrongSize(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	v := New(1000)
	if err := v.Save(d.WriteSectors, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(d.ReadSectorsInto, 0, 2000); !errors.Is(err, ErrNotSaved) {
		t.Fatalf("Load with wrong size: %v", err)
	}
}

// Property: FreeCount always equals the number of set bits, under any mix of
// operations.
func TestQuickCountsConsistent(t *testing.T) {
	f := func(ops []struct {
		P, C   uint16
		Action uint8
	}) bool {
		const n = 4096
		v := New(n)
		for _, o := range ops {
			p := int(o.P) % n
			c := int(o.C) % (n - p)
			if o.Action%2 == 0 {
				v.MarkFree(p, c)
			} else {
				v.MarkAllocated(p, c)
			}
		}
		count := 0
		for i := 0; i < n; i++ {
			if v.IsFree(i) {
				count++
			}
		}
		return count == v.FreeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FindRun results are always actually free and within the window.
func TestQuickFindRunSound(t *testing.T) {
	f := func(frees []uint16, want, lo, hi uint16, down bool) bool {
		const n = 4096
		v := New(n)
		for _, p := range frees {
			v.MarkFree(int(p)%n, 1)
		}
		w := int(want)%64 + 1
		l, h := int(lo)%n, int(hi)%n
		if l > h {
			l, h = h, l
		}
		dir := 1
		if down {
			dir = -1
		}
		s, length := v.FindRun(w, l, h, dir)
		if length == 0 {
			return true
		}
		if length > w {
			return false
		}
		if s < l || s+length > h {
			return false
		}
		for i := s; i < s+length; i++ {
			if !v.IsFree(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// findRunReference is the original bit-at-a-time FindRun, kept as the
// executable specification for the word-accelerated scan.
func findRunReference(v *VAM, want, lo, hi, dir int) (start, length int) {
	if lo < 0 {
		lo = 0
	}
	if hi > v.Pages() {
		hi = v.Pages()
	}
	bestStart, bestLen := 0, 0
	runStart, runLen := -1, 0
	consider := func(s, l int) bool {
		if l >= want {
			if dir < 0 {
				bestStart, bestLen = s+l-want, want
			} else {
				bestStart, bestLen = s, want
			}
			return true
		}
		if l > bestLen {
			bestStart, bestLen = s, l
		}
		return false
	}
	if dir >= 0 {
		for i := lo; i < hi; i++ {
			if v.IsFree(i) {
				if runStart < 0 {
					runStart, runLen = i, 0
				}
				runLen++
			} else if runStart >= 0 {
				if consider(runStart, runLen) {
					return bestStart, bestLen
				}
				runStart, runLen = -1, 0
			}
		}
		if runStart >= 0 {
			consider(runStart, runLen)
		}
		return bestStart, bestLen
	}
	for i := hi - 1; i >= lo; i-- {
		if v.IsFree(i) {
			if runStart < 0 {
				runStart, runLen = i, 0
			}
			runStart = i
			runLen++
		} else if runLen > 0 {
			if consider(runStart, runLen) {
				return bestStart, bestLen
			}
			runStart, runLen = -1, 0
		}
	}
	if runLen > 0 {
		consider(runStart, runLen)
	}
	return bestStart, bestLen
}

// TestFindRunMatchesReference drives the word-accelerated FindRun against
// the bit-at-a-time reference over randomized bitmaps, windows, and
// directions, including word-boundary-straddling runs and edge windows.
func TestFindRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 65 + rng.Intn(1000)
		v := New(n)
		// Random free regions with a bias toward runs near word edges.
		for k := 0; k < 1+rng.Intn(20); k++ {
			p := rng.Intn(n)
			l := 1 + rng.Intn(100)
			if p+l > n {
				l = n - p
			}
			v.MarkFree(p, l)
		}
		for q := 0; q < 30; q++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			want := 1 + rng.Intn(80)
			dir := 1
			if rng.Intn(2) == 0 {
				dir = -1
			}
			gs, gl := v.FindRun(want, lo, hi, dir)
			ws, wl := findRunReference(v, want, lo, hi, dir)
			if gs != ws || gl != wl {
				t.Fatalf("trial %d: FindRun(%d, %d, %d, %d) = (%d,%d), reference (%d,%d)",
					trial, want, lo, hi, dir, gs, gl, ws, wl)
			}
		}
	}
}

// findRunCase is one search of BenchmarkFindRun: a bitmap, a window and a
// direction, each of which holds a run of 8.
type findRunCase struct {
	name   string
	v      *VAM
	lo, hi int
	dir    int
}

// findRunCases are the allocator's searches in both directions over the soak
// shape: a mostly-allocated 600k-page volume with scattered free fragments in
// its lower half and the free tail at the end. Upward is an extension's first
// fit, downward a sized big create's. "small-area" is a small create's search
// on the centre layout: downward through the ≈ 300k pages below the metadata,
// whose top 20k are packed small files with the holes of deleted ones among
// them and whose rest is free.
func findRunCases() []findRunCase {
	n := 600_000
	v := New(n)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 2000; k++ {
		v.MarkFree(rng.Intn(n/2), 1+rng.Intn(3))
	}
	v.MarkFree(n-5000, 5000)

	const boundary = 300_000
	small := New(n)
	small.MarkFree(4, boundary-20_000-4)
	for k := 0; k < 2000; k++ {
		small.MarkFree(boundary-20_000+rng.Intn(20_000-4), 1+rng.Intn(4))
	}
	return []findRunCase{
		{"up", v, 0, n, 1},
		{"down", v, 0, n, -1},
		{"small-area", small, 4, boundary, -1},
	}
}

// TestFindRunAllocatesNothing: the search runs under the allocator lock on
// every create and extend, and allocates nothing in either direction.
func TestFindRunAllocatesNothing(t *testing.T) {
	for _, c := range findRunCases() {
		if a := testing.AllocsPerRun(20, func() { c.v.FindRun(8, c.lo, c.hi, c.dir) }); a != 0 {
			t.Errorf("%s: FindRun allocates %.0f objects per call", c.name, a)
		}
	}
}

func BenchmarkFindRun(b *testing.B) {
	for _, c := range findRunCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, l := c.v.FindRun(8, c.lo, c.hi, c.dir); l != 8 {
					b.Fatal("no run found")
				}
			}
		})
	}
}

// TestPlacementQueriesMatchReference drives the word-level FindRunAfter,
// Fits and FirstAllocated — a commit group's placement queries — against
// bit-at-a-time references over randomized bitmaps and windows, with
// periods below and above a word.
func TestPlacementQueriesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 65 + rng.Intn(1000)
		v := New(n)
		for k := 0; k < 1+rng.Intn(30); k++ {
			p := rng.Intn(n)
			v.MarkFree(p, min(1+rng.Intn(60), n-p))
		}
		for q := 0; q < 30; q++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			want := 1 + rng.Intn(9)
			period := 1 + rng.Intn(80)
			slot := rng.Intn(period)
			ws, wok := -1, false
			bestD := period
			fits, first := 0, hi
			for p := lo; p < hi; p++ {
				if !v.IsFree(p) {
					first = min(first, p)
					continue
				}
				if p+want <= hi && (p == lo || !v.IsFree(p-1)) {
					l := 0
					for p+l < hi && v.IsFree(p+l) {
						l++
					}
					fits += l / want
				}
				ok := p+want <= hi
				for k := 0; ok && k < want; k++ {
					ok = v.IsFree(p + k)
				}
				if d := ((p-slot)%period + period) % period; ok && d <= bestD {
					ws, wok, bestD = p, true, d
				}
			}
			gs, gok := v.FindRunAfter(want, lo, hi, slot, period)
			if gok != wok || gok && gs != ws {
				t.Fatalf("trial %d: FindRunAfter(%d, %d, %d, %d, %d) = (%d, %v), reference (%d, %v)",
					trial, want, lo, hi, slot, period, gs, gok, ws, wok)
			}
			if got := v.Fits(want, lo, hi); got != fits {
				t.Fatalf("trial %d: Fits(%d, %d, %d) = %d, reference %d", trial, want, lo, hi, got, fits)
			}
			if got := v.FirstAllocated(lo, hi); got != first {
				t.Fatalf("trial %d: FirstAllocated(%d, %d) = %d, reference %d", trial, lo, hi, got, first)
			}
		}
	}
}

// TestPlacementQueriesAllocateNothing: the placement queries run under the
// allocator lock on every small create of a commit group.
func TestPlacementQueriesAllocateNothing(t *testing.T) {
	for _, c := range findRunCases() {
		if a := testing.AllocsPerRun(20, func() {
			c.v.FindRunAfter(4, c.hi-722, c.hi, 17, 38)
			c.v.Fits(4, c.hi-722, c.hi)
			c.v.FirstAllocated(c.lo, c.hi)
		}); a != 0 {
			t.Errorf("%s: the placement queries allocate %.0f objects per call", c.name, a)
		}
	}
}
