package core

import (
	"bytes"
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
	Hidden time.Duration // how much of the pool's balanced share cost no elapsed time

	// Filled in by scanForRebuild, over the sweep and what followed it.
	Arm         time.Duration // the device's busy time: the transfers and any per-page fallback
	StaleLeaves int           // leaf-kind pages the pool decoded that no chain link reached
}

// sweepNT reads name-table pages [lo, hi) in device order: the whole range
// of copy A in ntSweepPages-page sequential requests, then (with both set)
// the same range of copy B. The two copies sit a long seek apart, so a reader
// that alternates between them per page pays two seeks per page; the sweep
// pays two per range. Each page gets the read-only mount's log overlay and a
// CRC check, and a page whose copies are both valid and identical goes to
// verified as a slice of the chunk buffer (not a copy; verified may keep it).
// A page in a chunk that failed to read, or whose copies are invalid or
// differ, goes to suspect instead, which is expected to take the per-page
// dual-copy path with its retries and repairs — damage costs per-page reads
// only where the damage is.
//
// The pass is one run of stretches, a transfer each — copy A's chunks, then
// copy B's — over one pool of the caller's width, and its driver, this
// goroutine, never waits for the pool until the last transfer is in
// (parscan.Overlap, as far ahead as there are stretches). The check of an A
// chunk is overlay, CRC and the caller's per-page work on every page whose
// CRC held, before the page's other copy has been seen; the check of a B
// chunk is the compare against its A chunk. A chunk's buffer is the driver's
// while it is being read, the pool's from then until the pass's last read has
// returned, and the driver's again after that: verified and suspect are
// called from this goroutine, in page order, once both copies are in. So the
// sweep holds everything it reads until the end — copy A's buffers because
// verified may keep their pages, copy B's because nothing waits for the
// compare that would free them — and costs the larger of its transfers and
// its checks, on the clock's lane and in fact. work may be nil; it runs on
// pool goroutines and must touch only its page and its own per-page slot.
//
// spare, if not nil, is a stock of chunk buffers the caller lends: the sweep
// draws on it before it allocates and leaves every buffer it used there when
// it returns. Only a caller whose verified keeps no page may lend one (scrub,
// which sweeps stretch after stretch through the same two region copies).
func (v *Volume) sweepNT(lo, hi int, both bool, workers int, spare *[][]byte,
	work func(w *parscan.Worker, id uint32, page []byte),
	verified func(id uint32, page []byte), suspect func(id uint32)) ntSweepStats {
	var st ntSweepStats
	n := (hi - lo + ntSweepPages - 1) / ntSweepPages
	stretches := n
	if both {
		stretches = 2 * n
	}
	span := func(c int) (first, pages int) {
		first = lo + c*ntSweepPages
		return first, min(ntSweepPages, hi-first)
	}
	bufs := make([][]byte, stretches) // stretch s as read; nil if the transfer failed or was not worth issuing
	ok := make([][]byte, hi-lo)       // the verdict so far: a page's image while nothing speaks against it
	lane := v.cpu.NewLane()
	_ = parscan.Overlap(lane, workers, stretches, stretches,
		func(s int) (int, error) {
			first, pages := span(s % n)
			base := v.lay.ntA
			if s >= n {
				if bufs[s-n] == nil {
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
			if cap(buf) < pages*NTPageSize {
				buf = make([]byte, pages*NTPageSize)
			}
			buf = buf[:pages*NTPageSize]
			if v.d.ReadSectorsInto(base+first*NTPageSectors, buf) != nil {
				return 0, nil
			}
			bufs[s] = buf
			return pages, nil
		},
		func(s int, w *parscan.Worker, i int) {
			if v.onSweep != nil {
				v.onSweep(s)
			}
			first, _ := span(s % n)
			id, slot := uint32(first+i), &ok[first-lo+i]
			w.Charge(csumCost)
			if s >= n && *slot == nil {
				return
			}
			page := v.overlayNT(id, bufs[s][i*NTPageSize:(i+1)*NTPageSize])
			switch {
			case s >= n:
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
		func(s int, ps parscan.Stats) error {
			st.CPU += ps.TotalCPU()
			if s < stretches-n {
				return nil // copy A of a pair: the verdict waits for copy B
			}
			first, pages := span(s % n)
			for i, page := range ok[first-lo : first-lo+pages] {
				if page == nil || bufs[s] == nil {
					st.Fallbacks++
					suspect(uint32(first + i))
					continue
				}
				st.Pages++
				verified(uint32(first+i), page)
			}
			return nil
		})
	st.Hidden = lane.Hidden()
	if spare != nil {
		for _, buf := range bufs {
			if buf != nil {
				*spare = append(*spare, buf)
			}
		}
	}
	return st
}
