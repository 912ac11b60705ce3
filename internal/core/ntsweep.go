package core

import (
	"bytes"
	"slices"
	"time"

	"repro/internal/parscan"
)

// ntSweepPages is how many name-table pages one sweep transfer carries: a
// full controller request.
const ntSweepPages = MaxTransferSectors / NTPageSectors

// ntSweepStats counts what one region sweep did, and reports the pool's side
// of its two timelines (DESIGN §17).
type ntSweepStats struct {
	Pages     int // pages handed over verified, straight from the chunk buffers
	Chunks    int // sequential chunk transfers issued, both copies together
	Fallbacks int // pages sent down the per-page dual-copy path

	CPU    time.Duration // the pool's total: checksums, compares and the caller's per-page work
	Hidden time.Duration // how much of the pool's balanced share cost no elapsed time beside the sweep's own work

	// What the caller's step between the reads and the merges (the crash
	// mount's replay) took, on the clock and on the arm, and how much of it
	// ran while the pool still held work; the pages the overlay it published
	// made the pool check and decode again; and the pages swept after it.
	Then       time.Duration
	ThenArm    time.Duration
	ThenHidden time.Duration
	Redecoded  int
	Late       int

	// Filled in by mountScan, over the sweep and what followed it.
	Arm         time.Duration // the device's busy time: the transfers and any per-page fallback
	StaleLeaves int           // leaf-kind pages the pool decoded that no chain link reached
}

// sweptChunk is one chunk of a sweep: its pages, both copies as read (nil if
// the transfer failed or was not worth issuing), and the verdict so far.
type sweptChunk struct {
	first, pages int
	a, b         []byte
	ok           [][]byte // per page: its image while nothing speaks against it
	overlaid     bool     // read with the overlay in place: its checks apply it
	recheck      []bool   // per page: left to the recheck stretch, which merges it
}

// sweepStretch is one stretch of a sweep's pass: a transfer of one copy of a
// chunk, or — recheck set — the pool's second look, under the overlay, at
// pages it checked before the overlay landed.
type sweepStretch struct {
	c        *sweptChunk
	copyB    bool
	transfer int // the transfer's place in the pass, for onSweep
	recheck  []ntPageRef
}

// ntPageRef names page i of chunk c.
type ntPageRef struct {
	c *sweptChunk
	i int
}

// sweepNT reads name-table pages [lo, hi) in device order: the whole range
// of copy A in ntSweepPages-page sequential requests, then (with both set)
// the same range of copy B. The two copies sit a long seek apart, so a reader
// that alternates between them per page pays two seeks per page; the sweep
// pays two per range. Each page gets the mount's log overlay, while one is in
// place (ntOverlay), and a CRC check, and a page whose copies are both valid and identical goes to
// verified as a slice of the chunk buffer (not a copy; verified may keep it).
// A page in a chunk that failed to read, or whose copies are invalid or
// differ, goes to suspect instead, which is expected to take the per-page
// dual-copy path with its retries and repairs — damage costs per-page reads
// only where the damage is.
//
// The pass is one run of stretches, a transfer each — copy A's chunks, then
// copy B's — over one pool of the caller's width, and its driver, this
// goroutine, never waits for the pool until the last transfer is in
// (parscan.OverlapThen, as far ahead as there are stretches). The check of an
// A chunk is overlay, CRC and the caller's per-page work on every page whose
// CRC held, before the page's other copy has been seen; the check of a B
// chunk is the compare against its A chunk. A chunk's buffer is the driver's
// while it is being read, the pool's from then until the pass's last read has
// returned, and the driver's again after that: verified and suspect are
// called from this goroutine, in page order — but for the pages a step in
// between sends to a second look, below — once both copies are in. So the
// sweep holds everything it reads until the end — copy A's buffers because
// verified may keep their pages, copy B's because nothing waits for the
// compare that would free them — and costs the larger of its transfers and
// its checks, on the clock's lane and in fact. work may be nil; it runs on
// pool goroutines and must touch only its page and its own per-page slot.
//
// then, if not nil, is the crash mount's replay (DESIGN §8): the driver runs
// it after the last transfer, while the pool is still checking, and before
// any merge joins the lane. Until then the overlay is not in place, so the
// pass's checks so far ignore it; then publishes it and returns the table's
// new end. The pages of [lo, hi) the overlay covers go to one more stretch,
// which checks them again with the overlay on both copies and runs work on
// the result — the pool's work, on the lane, queued behind what it still
// holds — and is where their verdicts are merged. The pages [hi, end) follow
// as late chunks on the same grid, read, checked and merged like the first,
// with the overlay in place before their only check.
//
// spare, if not nil, is a stock of chunk buffers the caller lends: the sweep
// draws on it before it allocates and leaves every buffer it used there when
// it returns. Only a caller whose verified keeps no page may lend one (scrub,
// which sweeps stretch after stretch through the same two region copies).
func (v *Volume) sweepNT(lo, hi int, both bool, workers int, spare *[][]byte,
	then func() (end int, err error),
	work func(w *parscan.Worker, id uint32, page []byte),
	verified func(id uint32, page []byte), suspect func(id uint32)) (ntSweepStats, error) {
	var st ntSweepStats
	copies := 1
	if both {
		copies = 2
	}
	// Stretches are written by this goroutine before the pool is handed them,
	// into a slice sized for the most the pass can have, so the pool's reads
	// of the ones it holds never race the driver adding more.
	most := copies * ((hi - lo + ntSweepPages - 1) / ntSweepPages)
	if then != nil {
		most = copies*((max(v.lay.ntPages, hi)-lo+ntSweepPages-1)/ntSweepPages) + 1
	}
	ss := make([]sweepStretch, most)
	stretches, transfers := 0, 0
	var chunks []*sweptChunk
	plan := func(lo, hi int, overlaid bool) {
		from := len(chunks)
		for first := lo; first < hi; first += ntSweepPages {
			pages := min(ntSweepPages, hi-first)
			chunks = append(chunks, &sweptChunk{first: first, pages: pages, ok: make([][]byte, pages), overlaid: overlaid})
		}
		for k := 0; k < copies; k++ {
			for _, c := range chunks[from:] {
				ss[stretches] = sweepStretch{c: c, copyB: k == 1, transfer: transfers}
				stretches++
				transfers++
			}
		}
	}
	plan(lo, hi, then == nil)
	firstStretches := stretches
	var firstFree, thenStart time.Duration
	lane := v.cpu.NewLane()
	thenStep := func() (int, error) {
		thenStart = v.clk.Now()
		arm := v.d.Stats().BusyTime()
		end, err := then()
		st.Then, st.ThenArm = v.clk.Now()-thenStart, v.d.Stats().BusyTime()-arm
		if err != nil {
			return 0, err
		}
		before := stretches
		if recheck := v.overlaidPages(chunks, both); len(recheck) > 0 {
			for _, r := range recheck {
				if r.c.recheck == nil {
					r.c.recheck = make([]bool, r.c.pages)
				}
				r.c.recheck[r.i] = true
			}
			ss[stretches] = sweepStretch{recheck: recheck}
			stretches++
			st.Redecoded = len(recheck)
		}
		if end = min(end, v.lay.ntPages); end > hi {
			plan(hi, end, true)
			st.Late = end - hi
		}
		return stretches - before, nil
	}
	if then == nil {
		thenStep = nil
	}
	err := parscan.OverlapThen(lane, workers, stretches, most,
		func(s int) (int, error) {
			e := &ss[s]
			if e.recheck != nil {
				return len(e.recheck), nil
			}
			c, base := e.c, v.lay.ntA
			if e.copyB {
				if c.a == nil {
					return 0, nil // nothing to compare with: the chunk's pages are suspects already
				}
				base = v.lay.ntB
			}
			st.Chunks++
			var buf []byte
			if spare != nil && len(*spare) > 0 {
				last := len(*spare) - 1
				buf, *spare = (*spare)[last], (*spare)[:last]
			}
			if cap(buf) < c.pages*NTPageSize {
				buf = make([]byte, c.pages*NTPageSize)
			}
			buf = buf[:c.pages*NTPageSize]
			if v.d.ReadSectorsInto(base+c.first*NTPageSectors, buf) != nil {
				return 0, nil
			}
			if e.copyB {
				c.b = buf
			} else {
				c.a = buf
			}
			return c.pages, nil
		},
		func(s int, w *parscan.Worker, i int) {
			e := &ss[s]
			if e.recheck != nil {
				v.recheckNT(w, e.recheck[i], both, work)
				return
			}
			if v.onSweep != nil {
				v.onSweep(e.transfer)
			}
			c := e.c
			id, slot := uint32(c.first+i), &c.ok[i]
			w.Charge(csumCost)
			if e.copyB && *slot == nil {
				return
			}
			var page []byte
			if e.copyB {
				page = c.b[i*NTPageSize : (i+1)*NTPageSize]
			} else {
				page = c.a[i*NTPageSize : (i+1)*NTPageSize]
			}
			if c.overlaid {
				page = v.overlayNT(id, page)
			}
			switch {
			case e.copyB:
				// Equal to a valid page is valid: no second CRC needed.
				if !bytes.Equal(*slot, page) {
					*slot = nil
				}
			case crcOK(page) || isVirgin(page):
				*slot = page
				if work != nil {
					work(w, id, page)
				}
			}
		},
		thenStep,
		func(s int, ps parscan.Stats) error {
			st.CPU += ps.TotalCPU()
			if s == firstStretches-1 {
				firstFree = lane.Free()
			}
			e := &ss[s]
			if e.recheck != nil {
				for _, r := range e.recheck {
					st.merge(r.c, r.i, both, verified, suspect)
				}
				return nil
			}
			if both && !e.copyB {
				return nil // copy A of a pair: the verdict waits for copy B
			}
			for i := range e.c.ok {
				if e.c.recheck == nil || !e.c.recheck[i] {
					st.merge(e.c, i, both, verified, suspect)
				}
			}
			return nil
		})
	// The step between hid as much of itself as the pool still had queued
	// when it began; the rest of what the lane hid, it hid beside the sweep.
	st.ThenHidden = min(st.Then, max(firstFree-thenStart, 0))
	st.Hidden = lane.Hidden() - st.ThenHidden
	if spare != nil {
		for _, c := range chunks {
			for _, buf := range [][]byte{c.a, c.b} {
				if buf != nil {
					*spare = append(*spare, buf)
				}
			}
		}
	}
	return st, err
}

// merge hands page i of c to verified, or to suspect if a copy failed to read
// or the copies do not make one valid page.
func (st *ntSweepStats) merge(c *sweptChunk, i int, both bool,
	verified func(id uint32, page []byte), suspect func(id uint32)) {
	id := uint32(c.first + i)
	if c.ok[i] == nil || (both && c.b == nil) {
		st.Fallbacks++
		suspect(id)
		return
	}
	st.Pages++
	verified(id, c.ok[i])
}

// overlaidPages lists, in page order, the pages of chunks whose transfers
// all came in and on which the overlay lays at least one sector: the pages
// whose check before the overlay landed no longer stands.
func (v *Volume) overlaidPages(chunks []*sweptChunk, both bool) []ntPageRef {
	over := v.ntOverlay()
	if len(over) == 0 || len(chunks) == 0 {
		return nil
	}
	lo := chunks[0].first
	var ids []int
	seen := make(map[int]bool)
	for target := range over {
		id := int(target / NTPageSectors)
		k := (id - lo) / ntSweepPages
		if id < lo || k >= len(chunks) || seen[id] {
			continue
		}
		if c := chunks[k]; c.a != nil && (!both || c.b != nil) && id < c.first+c.pages {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	refs := make([]ntPageRef, len(ids))
	for j, id := range ids {
		c := chunks[(id-lo)/ntSweepPages]
		refs[j] = ntPageRef{c: c, i: id - c.first}
	}
	return refs
}

// recheckNT is the pool's second look at a page it checked before the
// overlay landed: the overlay on both copies, the CRC and the compare again,
// and work on the page that stands, in place of the first look's verdict.
func (v *Volume) recheckNT(w *parscan.Worker, r ntPageRef, both bool,
	work func(w *parscan.Worker, id uint32, page []byte)) {
	c, i := r.c, r.i
	id := uint32(c.first + i)
	page := v.overlayNT(id, c.a[i*NTPageSize:(i+1)*NTPageSize])
	w.Charge(csumCost)
	if !crcOK(page) && !isVirgin(page) {
		page = nil
	}
	if both && page != nil {
		w.Charge(csumCost)
		if !bytes.Equal(page, v.overlayNT(id, c.b[i*NTPageSize:(i+1)*NTPageSize])) {
			page = nil
		}
	}
	c.ok[i] = page
	if page != nil && work != nil {
		work(w, id, page)
	}
}
