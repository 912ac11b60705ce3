package core

import (
	"bytes"
	"time"

	"repro/internal/parscan"
)

// ntSweepPages is how many name-table pages one sweep transfer carries: a
// full controller request.
const ntSweepPages = MaxTransferSectors / NTPageSectors

// ntSweepStats counts what one region sweep did.
type ntSweepStats struct {
	Pages     int // pages handed over verified, straight from the chunk buffers
	Chunks    int // sequential chunk transfers issued, both copies together
	Fallbacks int // pages sent down the per-page dual-copy path
}

// ntSweepSet is one of the sweep's two buffer sets: a chunk of copy B (read
// only to be compared, so the buffer is reused) and the verdict on each of the
// chunk's pages — the verified image, or nil for a suspect.
type ntSweepSet struct {
	b     []byte
	bRead bool
	pages [ntSweepPages][]byte
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
// The driver checks one buffer while the next transfer is in flight
// (parscan.Overlap, a chunk per stretch): once a chunk's last copy is in, its
// checksums go to the clock's lane and this goroutine issues the next
// transfer, so the run stays sequential on the virtual clock and the
// checksums cost elapsed time only where they outlast a transfer. verified
// and suspect are called from this goroutine, in page order, a chunk behind
// the reads.
func (v *Volume) sweepNT(lo, hi int, both bool, verified func(id uint32, page []byte), suspect func(id uint32)) ntSweepStats {
	var st ntSweepStats
	span := func(c int) (first, n int) {
		first = lo + c*ntSweepPages
		n = ntSweepPages
		if first+n > hi {
			n = hi - first
		}
		return first, n
	}
	read := func(base, first int, dst []byte) bool {
		st.Chunks++
		return v.d.ReadSectorsInto(base+first*NTPageSectors, dst) == nil
	}
	// Copy A's buffers are not reused: verified may keep its pages.
	runsA := make([][]byte, (hi-lo+ntSweepPages-1)/ntSweepPages)
	readA := func(c int) {
		first, n := span(c)
		if buf := make([]byte, n*NTPageSize); read(v.lay.ntA, first, buf) {
			runsA[c] = buf
		}
	}
	var sets [2]ntSweepSet
	copies := 1
	if both {
		copies = 2
		for c := range runsA {
			readA(c)
		}
		for i := range sets {
			sets[i].b = make([]byte, ntSweepPages*NTPageSize)
		}
	}
	_ = parscan.Overlap(v.cpu.NewLane(), 1, len(runsA),
		func(c int) (int, error) {
			first, n := span(c)
			if s := &sets[c%2]; !both {
				readA(c)
			} else if runsA[c] != nil {
				s.bRead = read(v.lay.ntB, first, s.b[:n*NTPageSize])
			}
			return 1, nil
		},
		func(c int, w *parscan.Worker, _ int) {
			s, a := &sets[c%2], runsA[c]
			first, n := span(c)
			clear(s.pages[:])
			if a == nil || (both && !s.bRead) {
				return
			}
			w.Charge(time.Duration(copies*n) * csumCost)
			for i := 0; i < n; i++ {
				id := uint32(first + i)
				page := v.overlayNT(id, a[i*NTPageSize:(i+1)*NTPageSize])
				ok := crcOK(page) || isVirgin(page)
				if ok && both {
					// Equal to a valid page is valid: no second CRC needed.
					ok = bytes.Equal(page, v.overlayNT(id, s.b[i*NTPageSize:(i+1)*NTPageSize]))
				}
				if ok {
					s.pages[i] = page
				}
			}
		},
		func(c int, _ parscan.Stats) error {
			first, n := span(c)
			for i, page := range sets[c%2].pages[:n] {
				if page == nil {
					st.Fallbacks++
					suspect(uint32(first + i))
					continue
				}
				st.Pages++
				verified(uint32(first+i), page)
			}
			runsA[c] = nil
			return nil
		})
	return st
}
