// Package alloc implements FSD's run (extent) allocator with separate small-
// and big-file areas (Section 5.6 of the paper).
//
// The data region of the volume is split by a boundary: files at or below
// the size threshold are allocated from the low end growing upward, big
// files from the high end growing downward — "similar to many memory
// allocators: dynamic storage is grown starting from small addresses, while
// the stack is grown from the end of memory towards small addresses". The
// areas are only hints; when the preferred area has no space the other area
// is used, so allocation never fails while free pages exist.
//
// A layout whose metadata sits at the boundary (FSD's default, the log and
// name table on the central cylinders) sets SmallFromBoundary: small files
// then fill first-fit downward from the boundary, the highest hole that
// holds them first, so they land beside the metadata a small create
// alternates with instead of at the far edge of their area.
//
// That rule is for a file whose size is known when it is created (Alloc). A
// file that grows (Extend) is an append-only writer and gets an append-only
// extent: the pages directly behind its last run while they are free, so
// that the run lengthens in place, else the next free stretch above it in
// the big-file area. Applying the top-down rule to every increment of a
// growing file would lay it out as reversed pieces, each one behind the head
// that just finished the piece before.
package alloc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vam"
)

// Run is a contiguous extent of disk pages.
type Run struct {
	Start uint32
	Len   uint32
}

// Config describes the data region served by an allocator.
type Config struct {
	Lo int // first data page (inclusive)
	Hi int // last data page (exclusive)
	// SmallThreshold is the largest allocation (in pages) treated as a
	// small file. The paper: 50% of files are under 4,000 bytes (8
	// pages) but use only 8% of the sectors.
	SmallThreshold int
	// SmallFraction is the fraction (percent) of the region reserved as
	// the small-file area hint. Zero means 25%.
	SmallFraction int
	// Boundary, when not zero, is the page separating the two areas, in
	// place of SmallFraction: a layout that has a reason for its split —
	// the central metadata — names the page, which a percentage only
	// approximates.
	Boundary int
	// SmallFromBoundary says the metadata sits at the boundary, above the
	// small-file area: small files are placed in the highest hole below the
	// boundary that holds them, taking its top pages, instead of the
	// lowest. The zero value keeps the small area filling upward from Lo.
	SmallFromBoundary bool
	// MaxRuns bounds the number of extents per allocation so run tables
	// stay small enough for a name-table entry. Zero means 16.
	MaxRuns int
}

func (c Config) smallFraction() int {
	if c.SmallFraction == 0 {
		return 25
	}
	return c.SmallFraction
}

func (c Config) maxRuns() int {
	if c.MaxRuns == 0 {
		return 16
	}
	return c.MaxRuns
}

// boundary returns the page index separating the small and big areas.
func (c Config) boundary() int {
	if c.Boundary != 0 {
		return c.Boundary
	}
	return c.Lo + (c.Hi-c.Lo)*c.smallFraction()/100
}

// Allocator hands out runs of pages against a VAM. It is not safe for
// concurrent use — except Stats, whose counters are atomics.
type Allocator struct {
	v   *vam.VAM
	cfg Config

	extendsInPlace   atomic.Int64
	extendsElsewhere atomic.Int64
}

// Stats counts how growth was placed. ExtendsElsewhere counts every
// extension that could not lengthen the file's last run: one per file
// created empty and streamed, its first growth out of the small-file area,
// and every time the pages behind the file were not free — taken by another
// growing file, or the end of the hole the file had started in.
type Stats struct {
	ExtendsInPlace   int64 // Extend calls that lengthened the file's last run
	ExtendsElsewhere int64 // Extend calls that had to start a new run
}

// Stats returns the placement counters; safe to call concurrently with
// allocation.
func (a *Allocator) Stats() Stats {
	return Stats{
		ExtendsInPlace:   a.extendsInPlace.Load(),
		ExtendsElsewhere: a.extendsElsewhere.Load(),
	}
}

// New returns an allocator over the data region described by cfg.
func New(v *vam.VAM, cfg Config) (*Allocator, error) {
	if cfg.Lo < 0 || cfg.Hi > v.Pages() || cfg.Lo >= cfg.Hi {
		return nil, fmt.Errorf("alloc: bad region [%d,%d)", cfg.Lo, cfg.Hi)
	}
	if cfg.Boundary != 0 && (cfg.Boundary < cfg.Lo || cfg.Boundary > cfg.Hi) {
		return nil, fmt.Errorf("alloc: boundary %d outside [%d,%d]", cfg.Boundary, cfg.Lo, cfg.Hi)
	}
	return &Allocator{v: v, cfg: cfg}, nil
}

// Config returns the allocator's region description.
func (a *Allocator) Config() Config { return a.cfg }

// Alloc returns runs covering exactly pages disk pages, preferring a single
// contiguous run in the area suited to the allocation's size. The pages are
// marked allocated in the VAM. On failure nothing is allocated.
func (a *Allocator) Alloc(pages int) ([]Run, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("alloc: request for %d pages", pages)
	}
	small := pages <= a.cfg.SmallThreshold
	b := a.cfg.boundary()
	// Preference order of (lo, hi, dir) windows.
	type window struct{ lo, hi, dir int }
	var order []window
	switch {
	case small && a.cfg.SmallFromBoundary:
		order = []window{{a.cfg.Lo, b, -1}, {b, a.cfg.Hi, 1}}
	case small:
		order = []window{{a.cfg.Lo, b, 1}, {b, a.cfg.Hi, 1}}
	default:
		order = []window{{b, a.cfg.Hi, -1}, {a.cfg.Lo, b, -1}}
	}
	var runs []Run
	remaining := pages
	for remaining > 0 {
		if len(runs) >= a.cfg.maxRuns() {
			a.release(runs)
			return nil, fmt.Errorf("alloc: allocation of %d pages needs more than %d runs (fragmentation)", pages, a.cfg.maxRuns())
		}
		got := false
		for _, w := range order {
			s, l := a.v.FindRun(remaining, w.lo, w.hi, w.dir)
			if l == remaining {
				a.v.MarkAllocated(s, l)
				runs = append(runs, Run{Start: uint32(s), Len: uint32(l)})
				remaining = 0
				got = true
				break
			}
		}
		if remaining == 0 {
			break
		}
		if !got {
			// No single run satisfies the remainder anywhere: take
			// the largest run available across both windows.
			bestS, bestL := 0, 0
			for _, w := range order {
				s, l := a.v.FindRun(remaining, w.lo, w.hi, w.dir)
				if l > bestL {
					bestS, bestL = s, l
				}
			}
			if bestL == 0 {
				a.release(runs)
				return nil, vam.ErrNoSpace
			}
			a.v.MarkAllocated(bestS, bestL)
			runs = append(runs, Run{Start: uint32(bestS), Len: uint32(bestL)})
			remaining -= bestL
		}
	}
	return runs, nil
}

// Extend returns runs covering exactly more further pages for the file whose
// run table is runs, marked allocated in the VAM. The first choice is the
// pages directly behind the table's last run, in the area that suits the
// file's new size (a file outgrowing the small-file threshold does not go on
// growing among the small files); Join then lengthens that run instead of
// adding one. Otherwise a file that is now big gets the lowest free stretch
// of the big-file area above its last run — wrapping to the area's start —
// so that its runs ascend and the holes committed deletes leave are reused;
// what is left falls back to Alloc. On failure nothing is allocated.
func (a *Allocator) Extend(runs []Run, more int) ([]Run, error) {
	if more <= 0 {
		return nil, fmt.Errorf("alloc: extension by %d pages", more)
	}
	if len(runs) == 0 {
		return a.Alloc(more)
	}
	last := runs[len(runs)-1]
	end := int(last.Start) + int(last.Len)
	b := a.cfg.boundary()
	small := Pages(runs)+more <= a.cfg.SmallThreshold
	take := func(lo, hi int) []Run {
		if s, l := a.v.FindRun(more, lo, hi, 1); l == more {
			a.v.MarkAllocated(s, l)
			return []Run{{Start: uint32(s), Len: uint32(l)}}
		}
		return nil
	}
	if small && end+more <= b || !small && end >= b {
		if got := take(end, min(end+more, a.cfg.Hi)); got != nil {
			a.extendsInPlace.Add(1)
			return got, nil
		}
	}
	a.extendsElsewhere.Add(1)
	if !small {
		from := max(end, b)
		if got := take(from, a.cfg.Hi); got != nil {
			return got, nil
		}
		if got := take(b, from); got != nil {
			return got, nil
		}
	}
	return a.Alloc(more)
}

// Join returns the run table runs followed by grown, as a new slice, with
// runs that are adjacent on the disk merged into one — which is how a file
// extended in place keeps a table of two runs however often it grows.
func Join(runs, grown []Run) []Run {
	out := make([]Run, 0, len(runs)+len(grown))
	out = append(out, runs...)
	for _, g := range grown {
		if k := len(out) - 1; k >= 0 && out[k].Start+out[k].Len == g.Start {
			out[k].Len += g.Len
		} else {
			out = append(out, g)
		}
	}
	return out
}

// release undoes a partial allocation.
func (a *Allocator) release(runs []Run) {
	for _, r := range runs {
		a.v.MarkFree(int(r.Start), int(r.Len))
	}
}

// FreeNow returns runs to the VAM immediately (used when an allocation is
// abandoned before anything was made durable).
func (a *Allocator) FreeNow(runs []Run) {
	a.release(runs)
}

// FreeOnCommit moves runs to the shadow bitmap; they become allocatable at
// the next commit.
func (a *Allocator) FreeOnCommit(runs []Run) {
	for _, r := range runs {
		a.v.ShadowFree(int(r.Start), int(r.Len))
	}
}

// Pages sums the lengths of runs.
func Pages(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += int(r.Len)
	}
	return n
}
