package wal

import (
	"fmt"
	"hash/crc32"

	"repro/internal/disk"
)

// LogScrubStats reports a dual-copy audit of the live log region.
type LogScrubStats struct {
	Records        int // valid records audited
	SectorsChecked int
	Repaired       int // headers, images, or end pages rewritten from their twin
	Problems       []string
}

// logRuns is the audit's view of the record area: aligned runs of
// transferSectors, each read from the device once, whole, as the walk reaches
// it. The walk is ascending, so the reads are; only the runs under the record
// in hand are kept. A run that failed to read is remembered as such, and its
// sectors are then read one at a time, as every sector used to be.
type logRuns struct {
	d    *disk.Disk
	base int            // device address of area offset 0
	area int            // sectors in the record area
	runs map[int][]byte // by run index; nil: the read failed
}

// load makes the runs covering area offsets [lo, hi) present, reading the
// missing ones in ascending order, and forgets the runs below lo's.
func (r *logRuns) load(lo, hi int) {
	first := lo / transferSectors
	for w := range r.runs {
		if w < first || w*transferSectors >= hi {
			delete(r.runs, w)
		}
	}
	for w := first; w*transferSectors < hi && w*transferSectors < r.area; w++ {
		if _, ok := r.runs[w]; ok {
			continue
		}
		n := min(transferSectors, r.area-w*transferSectors)
		buf, err := r.d.ReadSectors(r.base+w*transferSectors, n)
		if err != nil {
			buf = nil
		}
		r.runs[w] = buf
	}
}

// sector returns the loaded image of the sector at device address addr, or
// nil if its run is not loaded or failed to read.
func (r *logRuns) sector(addr int) []byte {
	off := addr - r.base
	buf := r.runs[off/transferSectors]
	i := off % transferSectors
	if (i+1)*disk.SectorSize > len(buf) { // not loaded, failed, or past the area's end
		return nil
	}
	return buf[i*disk.SectorSize : (i+1)*disk.SectorSize]
}

// ScrubCopies audits every dual-copy structure in the live log — the anchor
// pair and, for each valid record, its header pair, page-image pairs, and
// end-page pair — rewriting a decayed or corrupt copy from its surviving
// twin. This is the active counterpart of recovery's passive copy fallback:
// a latent error that eats one copy between crashes is repaired here, before
// the second copy can decay too.
//
// The records are read as they lie — in ascending runs of a full transfer,
// the copies compared in memory (logRuns). A sector is read on its own only
// where that did not settle it: its run failed to read, or its image in the
// run does not check out.
//
// write overrides the sector-write primitive (the file system passes its
// retry/remap repair path); nil means a plain device write. The force lock
// is held end-to-end, so the audited record set is frozen while staging
// continues in other goroutines.
func (l *Log) ScrubCopies(write func(addr int, data []byte) error) (LogScrubStats, error) {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	var st LogScrubStats
	if write == nil {
		write = l.writeData
	}
	if err := l.scrubAnchor(&st, write); err != nil {
		return st, err
	}
	a, err := l.readAnchor()
	if err != nil {
		return st, err
	}
	off := int(a.offset)
	rec := a.recordNum
	boot := l.bootCount
	area := l.thirdLen() * l.thirds()

	runs := logRuns{d: l.d, base: l.base + anchorSectors, area: area, runs: make(map[int][]byte)}
	// readValid validates one sector with check, from its run if that
	// settles it and from the device otherwise; it returns the raw bytes so
	// a twin can be repaired from them.
	readValid := func(addr int, check func([]byte) bool) ([]byte, bool) {
		if buf := runs.sector(addr); buf != nil && check(buf) {
			return buf, true
		}
		buf, err := l.d.ReadSectors(addr, 1)
		if err != nil || !check(buf) {
			return nil, false
		}
		return buf, true
	}
	// auditPair cross-checks a two-copy sector pair, repairing whichever
	// side is bad from the good one. Returns false if both copies are gone.
	auditPair := func(a1, a2 int, check func([]byte) bool, what string) bool {
		b1, ok1 := readValid(a1, check)
		b2, ok2 := readValid(a2, check)
		st.SectorsChecked += 2
		switch {
		case ok1 && !ok2:
			if err := write(a2, b1); err == nil {
				st.Repaired++
			}
		case !ok1 && ok2:
			if err := write(a1, b2); err == nil {
				st.Repaired++
			}
		case !ok1 && !ok2:
			st.Problems = append(st.Problems, fmt.Sprintf("%s: both copies lost", what))
			return false
		}
		return true
	}

	skipped := false
	for rec < l.recordNum {
		addr := l.base + anchorSectors + off
		checkHdr := func(buf []byte) bool {
			h, ok := decodeHeader(buf)
			return ok && h.recordNum == rec && h.bootCount == boot
		}
		runs.load(off, off+3)
		hBuf, hOK := readValid(addr, checkHdr)
		cBuf, cOK := readValid(addr+2, checkHdr)
		st.SectorsChecked += 2
		if !hOK && !cOK {
			// The writer may have skipped the tail of a third because the
			// next record did not fit; try one jump, as recovery does.
			if skipped || off%l.thirdLen() == 0 {
				break
			}
			skipped = true
			off = ((off/l.thirdLen() + 1) % l.thirds()) * l.thirdLen()
			continue
		}
		good := hBuf
		if good == nil {
			good = cBuf
		}
		h, _ := decodeHeader(good)
		recLen := 5 + 2*h.n
		if off+recLen > area {
			break
		}
		runs.load(off, off+recLen)
		// Validate the end pair before repairing a copy-only header: a
		// header found only at the copy position can be a mirage from the
		// next third's first record (see Recover).
		checkEnd := func(buf []byte) bool { return l.validEnd(buf, rec, boot) }
		e1, endP := readValid(addr+3+h.n, checkEnd)
		e2, endC := readValid(addr+4+2*h.n, checkEnd)
		st.SectorsChecked += 2
		if !endP && !endC {
			if !hOK && !skipped && off%l.thirdLen() != 0 {
				skipped = true
				off = ((off/l.thirdLen() + 1) % l.thirds()) * l.thirdLen()
				continue
			}
			st.Problems = append(st.Problems, fmt.Sprintf("record %d: both end pages lost", rec))
			break
		}
		skipped = false
		switch {
		case hOK && !cOK:
			if err := write(addr+2, hBuf); err == nil {
				st.Repaired++
			}
		case !hOK && cOK:
			if err := write(addr, cBuf); err == nil {
				st.Repaired++
			}
		}
		switch {
		case endP && !endC:
			if err := write(addr+4+2*h.n, e1); err == nil {
				st.Repaired++
			}
		case !endP && endC:
			if err := write(addr+3+h.n, e2); err == nil {
				st.Repaired++
			}
		}
		for i := 0; i < h.n; i++ {
			crc := h.crcs[i]
			checkImg := func(buf []byte) bool { return crc32.ChecksumIEEE(buf) == crc }
			auditPair(addr+3+i, addr+4+h.n+i, checkImg,
				fmt.Sprintf("record %d image %d", rec, i))
		}
		st.Records++
		rec++
		off += recLen
		if off >= area {
			off = 0
		}
	}
	return st, nil
}

// scrubAnchor cross-checks the replicated anchor pair.
func (l *Log) scrubAnchor(st *LogScrubStats, write func(addr int, data []byte) error) error {
	type side struct {
		addr int
		buf  []byte
		ok   bool
	}
	sides := [2]side{{addr: l.base + 0}, {addr: l.base + 2}}
	for i := range sides {
		buf, err := l.d.ReadSectors(sides[i].addr, 1)
		st.SectorsChecked++
		if err != nil {
			continue
		}
		if _, ok := decodeAnchor(buf); ok {
			sides[i].buf = buf
			sides[i].ok = true
		}
	}
	switch {
	case sides[0].ok && !sides[1].ok:
		if err := write(sides[1].addr, sides[0].buf); err != nil {
			return err
		}
		st.Repaired++
	case !sides[0].ok && sides[1].ok:
		if err := write(sides[0].addr, sides[1].buf); err != nil {
			return err
		}
		st.Repaired++
	case !sides[0].ok && !sides[1].ok:
		return ErrAnchorLost
	case !bytesEqualSector(sides[0].buf, sides[1].buf):
		// Diverged (a crash between the two anchor writes): the primary
		// is written first, so it is the newer image.
		if err := write(sides[1].addr, sides[0].buf); err != nil {
			return err
		}
		st.Repaired++
	}
	return nil
}

func bytesEqualSector(a, b []byte) bool {
	if len(a) != disk.SectorSize || len(b) != disk.SectorSize {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
