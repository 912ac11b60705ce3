package wal

import (
	"bytes"
	"fmt"

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

// get serves the copy audit's walk: a sector comes from its run, which is read
// when the walk first reaches it; one that does not check out there — its run
// failed to read, or its image is bad — is read again on its own. Every copy
// is read, needed or not: the audit owes each twin a verdict.
func (r *logRuns) get(off int, ok func([]byte) bool, _ bool) []byte {
	if _, reached := r.runs[off/transferSectors]; !reached {
		r.load(off, off+1)
	}
	addr := r.base + off
	if buf := r.sector(addr); buf != nil && ok(buf) {
		return buf
	}
	if buf, err := r.d.ReadSectors(addr, 1); err == nil && ok(buf) {
		return buf
	}
	return nil
}

// ScrubCopies audits every dual-copy structure in the live log — the anchor
// pair and, for each valid record, its header pair, page-image pairs, and
// end-page pair — rewriting a decayed or corrupt copy from its surviving
// twin. This is the active counterpart of recovery's passive copy fallback:
// a latent error that eats one copy between crashes is repaired here, before
// the second copy can decay too. It walks the records replay would (walk),
// up to the last one written, and reads them as they lie: in ascending runs
// of a full transfer, the copies compared in memory (logRuns).
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
	runs := &logRuns{d: l.d, base: l.base + anchorSectors, area: l.thirdLen() * l.divs, runs: make(map[int][]byte)}
	a, why, err := l.walk(runs, l.recordNum, func(rec *record) bool {
		for i, p := range rec.pairs {
			st.SectorsChecked += 2
			good := p.good()
			switch {
			case good == nil:
				st.Problems = append(st.Problems, fmt.Sprintf("record %d image %d: both copies lost", rec.h.recordNum, i-2))
			case p.data[0] == nil || p.data[1] == nil:
				bad := p.at[0]
				if p.data[0] != nil {
					bad = p.at[1]
				}
				if write(runs.base+bad, good) == nil {
					st.Repaired++
				}
			}
		}
		st.Records++
		return true
	})
	if why == stopTorn {
		st.Problems = append(st.Problems, fmt.Sprintf("record %d: both end pages lost", a.recordNum+uint64(st.Records)))
	}
	return st, err
}

// scrubAnchor cross-checks the replicated anchor pair (log pages 0 and 2),
// rewriting a bad copy from the good one. Copies that both decode but differ
// were torn apart by a crash between the two anchor writes: the primary is
// written first, so it is the newer image.
func (l *Log) scrubAnchor(st *LogScrubStats, write func(addr int, data []byte) error) error {
	var bufs [2][]byte
	for i := range bufs {
		buf, err := l.d.ReadSectors(l.base+2*i, 1)
		st.SectorsChecked++
		if err == nil {
			if _, ok := decodeAnchor(buf); ok {
				bufs[i] = buf
			}
		}
	}
	from, to := 0, 1
	switch {
	case bufs[0] == nil && bufs[1] == nil:
		return ErrAnchorLost
	case bufs[0] == nil:
		from, to = 1, 0
	case bufs[1] != nil && bytes.Equal(bufs[0], bufs[1]):
		return nil
	}
	if err := write(l.base+2*to, bufs[from]); err != nil {
		return err
	}
	st.Repaired++
	return nil
}
