package core

import (
	"bytes"
	"time"
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
// No processor time is charged between the transfers of a copy, so the run
// stays sequential on the virtual clock (a driver that checks one buffer
// while the next transfer is in flight); the checksum cost of every page
// checked is charged in one lump at the end.
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
	read := func(base, first, n int) []byte {
		st.Chunks++
		buf, err := v.d.ReadSectors(base+first*NTPageSectors, n*NTPageSectors)
		if err != nil {
			return nil
		}
		return buf
	}
	runsA := make([][]byte, (hi-lo+ntSweepPages-1)/ntSweepPages)
	for c := range runsA {
		first, n := span(c)
		runsA[c] = read(v.lay.ntA, first, n)
	}
	copies, checked := 1, 0
	if both {
		copies = 2
	}
	for c, a := range runsA {
		first, n := span(c)
		runsA[c] = nil
		var b []byte
		if a != nil && both {
			b = read(v.lay.ntB, first, n)
		}
		for i := 0; i < n; i++ {
			id := uint32(first + i)
			if a == nil || (both && b == nil) {
				st.Fallbacks++
				suspect(id)
				continue
			}
			checked++
			page := v.overlayNT(id, a[i*NTPageSize:(i+1)*NTPageSize])
			ok := crcOK(page) || isVirgin(page)
			if ok && both {
				// Equal to a valid page is valid: no second CRC needed.
				ok = bytes.Equal(page, v.overlayNT(id, b[i*NTPageSize:(i+1)*NTPageSize]))
			}
			if !ok {
				st.Fallbacks++
				suspect(id)
				continue
			}
			st.Pages++
			verified(id, page)
		}
	}
	v.cpu.Charge(time.Duration(copies*checked) * csumCost)
	return st
}
