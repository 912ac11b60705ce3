package core

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/alloc"
)

// Held writes (DESIGN §12, "Held writes"). On a volume with a data cache, a
// write to fresh pages — pages the allocator handed out in the current
// commit group, which no forced commit names yet — is held in data-cache
// frames instead of going to the platter: a create's leader and data, a
// stream chunk into pages its growing write just allocated. Reads hit the
// held frames, and a delete before the force drops them (stepFree), so its
// data is never written. The next force that writes records writes every held
// sector (writeHeld, the log's DataHook) after it captures its batch and
// before its data barrier — so the data still reaches the platter before
// the record that names it — in one pass toward the log, and ends the
// commit group. Past the cache's hold cap, and on a volume without a data
// cache, the write goes out at once.

// heldCounters counts the held writes for Stats().Commit.
type heldCounters struct {
	sectors      atomic.Int64 // sectors the force's passes wrote
	requests     atomic.Int64 // requests they wrote them in
	writeThrough atomic.Int64 // fresh writes that went out at once: the cap was reached
	passes       atomic.Int64 // passes that wrote a request
	cylinders    atomic.Int64 // cylinders those passes visited
	grouped      atomic.Int64 // creates placed by the commit group's rule (placeCreate)
	allocated    atomic.Int64 // creates placed by Alloc: the group rule does not apply
	noRoom       atomic.Int64 // group creates placed by Alloc: no cylinder had room for an anchor
	fullCyl      atomic.Int64 // group creates placed by Alloc: no hole after the group's last one
}

// commitGroup is the current commit group, on a volume with a data cache:
// the runs the allocator handed out in it, which no forced commit names yet
// (fresh), and where its small creates go (DESIGN §3.5, "A commit group's
// creates") — the cylinder they share and the page after the last one
// placed — and the streams' reservations. It lives under vmMu, and
// writeHeld ends it.
type commitGroup struct {
	runs     []alloc.Run // the group's runs, in address order
	anchored bool
	cyl      int // the group's cylinder, once anchored
	end      int // the page after the group's last small create
	creates  int // small creates with data placed in the group
	last     int // creates of the group before: what the next anchor must hold
	floor    int // lowest allocated small-area page seen; -1: look again
	// reserved are the streams' reservations, at most one per handle. They
	// outlive the group: writeHeld carries over those a growth used since
	// the pass before and that still hold pages, and releases the rest.
	reserved []*reservation
}

// reservation is the run a stream's first growth reserved (DESIGN §3.5,
// "A stream's reservation"): pages allocated in the in-memory VAM alone,
// which the growths through handle f take from the front. used says a
// growth took some since the last pass.
type reservation struct {
	f    *File
	run  alloc.Run
	used bool
}

// allocGrowth allocates more pages for the growth of f's file, whose entry
// is e, and notes them fresh. The handle's first growth, on a version whose
// predecessor had f.hint data pages, reserves one run for the whole of the
// rest — max(more, hint − pages so far) — unless the file stays small with
// it, and so grows among the small files by Extend's rule. Every growth
// takes from the front of the handle's reservation while it holds pages;
// alloc.Extend places what that leaves. On failure nothing is allocated. It
// is the one caller of alloc.Extend.
func (f *File) allocGrowth(e *Entry, more int) ([]alloc.Run, error) {
	v := f.v
	v.vmMu.Lock()
	defer v.vmMu.Unlock()
	if f.hint > 0 {
		if n := max(more, int(f.hint)-e.Pages()); alloc.Pages(e.Runs)+n > v.al.Config().SmallThreshold {
			if r, ok := v.al.Reserve(n); ok {
				v.group.reserved = append(v.group.reserved, &reservation{f: f, run: r})
			}
		}
		f.hint = 0
	}
	var grown []alloc.Run
	for _, res := range v.group.reserved {
		if res.f == f && res.run.Len > 0 {
			grown = v.al.Take(&res.run, e.Runs, more)
			res.used = true
			more -= alloc.Pages(grown)
			break
		}
	}
	if more > 0 {
		rest, err := v.al.Extend(alloc.Join(e.Runs, grown), more)
		if err != nil {
			v.al.FreeNow(grown)
			return nil, err
		}
		grown = append(grown, rest...)
	}
	v.noteFresh(grown)
	return grown, nil
}

// releaseReserved gives back what every reservation still holds that no
// growth used since the pass before — all of them, with all set — and
// keeps the rest, marked unused, for the next pass to look at. The caller
// holds vmMu.
func (v *Volume) releaseReserved(all bool) {
	kept := v.group.reserved[:0]
	for _, res := range v.group.reserved {
		if res.used && res.run.Len > 0 && !all {
			res.used = false
			kept = append(kept, res)
			continue
		}
		v.al.Release(&res.run)
	}
	clear(v.group.reserved[len(kept):])
	v.group.reserved = kept
}

// placeCreate allocates pages for a create (the caller holds vmMu). On a
// volume that holds writes, a small create with data is one of its commit
// group's, which the force's pass writes together: the group's first goes to
// the cylinder nearest the metadata whose holes fit twice as many files as
// the group before created, and each later one to the hole on that cylinder
// that comes under the head soonest after the one before it ends — so the
// pass costs one seek and about one revolution. Neither search goes below
// the lowest small file already on the volume, so the set of written sectors
// does not grow. Where it finds no hole, Alloc places the create and its
// cylinder becomes the group's; the two misses are counted apart (no
// cylinder had room for an anchor; the group's cylinder had no hole after
// its last create). Every other create — with nothing held
// (the raw path, an empty create, whose leader is logged), a big one, or the
// edge layout — is Alloc's.
func (v *Volume) placeCreate(pages int, data bool) ([]alloc.Run, error) {
	if v.dataCache == nil || !data || pages > v.al.Config().SmallThreshold || !v.lay.smallFromBoundary() {
		v.heldStats.allocated.Add(1)
		return v.al.Alloc(pages)
	}
	g, geo := &v.group, v.d.Geometry()
	cylSectors := geo.SectorsPerTrack * geo.TracksPerCylinder
	floor := v.smallFloor()
	// window is cylinder c's part of the small-file area above the floor.
	window := func(c int) (int, int) {
		return max(c*cylSectors, floor), min((c+1)*cylSectors, v.lay.boundary)
	}
	start, fellBack := -1, &v.heldStats.noRoom
	if g.anchored {
		fellBack = &v.heldStats.fullCyl
		lo, hi := window(g.cyl)
		if s, ok := v.vm.FindRunAfter(pages, lo, hi, geo.RotationalSlot(g.end), geo.SectorsPerTrack); ok {
			start = s
		}
	} else {
		need := max(1, 2*g.last)
		for c := geo.Cylinder(v.lay.boundary - 1); c >= 0 && (c+1)*cylSectors > floor; c-- {
			if lo, hi := window(c); v.vm.Fits(pages, lo, hi) >= need {
				// The first of the group takes Alloc's pages on the
				// cylinder: the top of its highest hole that holds it.
				start, _ = v.vm.FindRun(pages, lo, hi, -1)
				break
			}
		}
	}
	var runs []alloc.Run
	if start >= 0 {
		v.vm.MarkAllocated(start, pages)
		runs = []alloc.Run{{Start: uint32(start), Len: uint32(pages)}}
		v.heldStats.grouped.Add(1)
	} else {
		var err error
		if runs, err = v.al.Alloc(pages); err != nil {
			return nil, err
		}
		fellBack.Add(1)
		g.floor = min(g.floor, int(runs[0].Start))
	}
	last := runs[len(runs)-1]
	g.end = int(last.Start + last.Len)
	g.anchored, g.cyl = true, geo.Cylinder(g.end-1)
	g.creates++
	return runs, nil
}

// smallFloor returns the lowest page of the small-file area that is not free,
// or the boundary if none is: the floor no group placement goes below. It is
// found once a group, then kept while that page stays allocated — a page
// allocated below it since only makes it the stricter bound. The caller holds
// vmMu.
func (v *Volume) smallFloor() int {
	g := &v.group
	if g.floor < 0 || g.floor < v.lay.boundary && v.vm.IsFree(g.floor) {
		g.floor = v.vm.FirstAllocated(v.lay.dataLo, v.lay.boundary)
	}
	return g.floor
}

// fresh reports whether every page of [addr, addr+n) is fresh: handed out
// by the allocator in the current commit group. A page that is
// not stays so — a page turns fresh only by being allocated, and a file's
// pages are not allocated under it — so a write told no needs no held-write
// lock; one told yes asks again under it.
func (v *Volume) fresh(addr, n int) bool {
	v.vmMu.Lock()
	defer v.vmMu.Unlock()
	runs := v.group.runs
	for end := addr + n; addr < end; {
		// The run that holds addr, if any, is the last one to start at or
		// below it.
		i, found := slices.BinarySearchFunc(runs, uint32(addr), func(r alloc.Run, p uint32) int { return cmp.Compare(r.Start, p) })
		if !found {
			i--
		}
		if i < 0 || addr >= int(runs[i].Start+runs[i].Len) {
			return false
		}
		addr = int(runs[i].Start + runs[i].Len)
	}
	return true
}

// noteFresh adds runs the allocator just handed out to the commit group's,
// kept in address order, on a volume that can hold writes. The caller holds
// vmMu. The list lives only until the group's force (writeHeld).
func (v *Volume) noteFresh(runs []alloc.Run) {
	if v.dataCache == nil {
		return
	}
	for _, r := range runs {
		i, _ := slices.BinarySearchFunc(v.group.runs, r.Start, func(f alloc.Run, p uint32) int { return cmp.Compare(f.Start, p) })
		v.group.runs = slices.Insert(v.group.runs, i, r)
	}
}

// writeHeld is the log's DataHook: the force's pass over the held sectors,
// every one the data cache holds (a sector is held only while its page is
// fresh, and the group's fresh runs end only here). Adjacent sectors merge
// into requests of at most MaxTransferSectors, which go out cylinder by
// cylinder toward the log (heldOrder) and, inside a cylinder, the one the
// head reaches soonest first (issueByPosition), so that the record write
// starts a short seek away. The frames go free once
// every request is written; a request that fails leaves them all held for
// the next force, which writes them again. The commit group is ended —
// every page it handed out now named by a captured batch, so fresh no more
// — only by a pass that wrote everything.
func (v *Volume) writeHeld() error {
	dc := v.dataCache
	if dc == nil {
		return nil
	}
	v.hmu.Lock()
	defer v.hmu.Unlock()
	held := dc.Held(v.held[:0])
	v.held = held
	reqs := v.heldReqs[:0]
	for i := 0; i < len(held); {
		j := i + 1
		for j < len(held) && held[j].Addr == held[j-1].Addr+1 && j-i < MaxTransferSectors {
			j++
		}
		reqs = append(reqs, homeReq{addr: held[i].Addr, lo: i, hi: j})
		i = j
	}
	v.heldOrder(reqs)
	v.heldReqs = reqs
	err := v.issueByPosition(reqs, func(r homeReq) error {
		bufs := v.heldBufs[:0]
		for _, h := range held[r.lo:r.hi] {
			bufs = append(bufs, h.Data)
		}
		v.heldBufs = bufs
		err := v.writeSectorsFrom(r.addr, bufs...)
		clear(bufs)
		return err
	})
	clear(held)
	if err != nil {
		return err
	}
	// Only now, with every request on the platter: a reader that found
	// a sector held and then misses it reads the platter, which must
	// hold it by then.
	cyl := -1
	for _, r := range reqs {
		dc.Release(r.addr, r.hi-r.lo)
		v.heldStats.requests.Add(1)
		v.heldStats.sectors.Add(int64(r.hi - r.lo))
		if c := v.d.Geometry().Cylinder(r.addr); c != cyl {
			cyl = c
			v.heldStats.cylinders.Add(1)
		}
	}
	if len(reqs) > 0 {
		v.heldStats.passes.Add(1)
	}
	v.vmMu.Lock()
	v.releaseReserved(false)
	v.group = commitGroup{runs: v.group.runs[:0], last: v.group.creates, floor: -1, reserved: v.group.reserved}
	v.vmMu.Unlock()
	return nil
}

// heldOrder puts reqs, sorted by address, in the pass's cylinder order:
// each side of the log swept from its far end toward it, the side that
// reaches farther first.
func (v *Volume) heldOrder(reqs []homeReq) {
	if len(reqs) == 0 {
		return
	}
	g, logCyl := v.d.Geometry(), v.d.Geometry().Cylinder(v.lay.logBase)
	k, _ := slices.BinarySearchFunc(reqs, v.lay.logBase, func(r homeReq, a int) int { return r.addr - a })
	below, above := 0, 0
	if k > 0 {
		below = logCyl - g.Cylinder(reqs[0].addr)
	}
	if k < len(reqs) {
		above = g.Cylinder(reqs[len(reqs)-1].addr) - logCyl
	}
	if above > below {
		slices.Reverse(reqs)               // the side above descending, then the one below …
		slices.Reverse(reqs[len(reqs)-k:]) // … ascending
	} else {
		slices.Reverse(reqs[k:])
	}
}
