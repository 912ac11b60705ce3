package wal

import (
	"bytes"
	"fmt"
	"slices"

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
// in hand are kept. A run is read past damage (disk.ReadPast) with one retry
// per sector, the second try that clears a transient fault, and each sector
// is judged as it was delivered: a second read of a rotted sector returns the
// same bytes, and one that stayed unreadable is dead.
type logRuns struct {
	d    *disk.Disk
	base int            // device address of area offset 0
	area int            // sectors in the record area
	runs map[int]logRun // by run index
}

// logRun is one run's sectors and those among them that stayed unreadable.
type logRun struct {
	buf  []byte // nil if the read failed on more than damage
	dead []int  // by device address
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
	read := func(addr int, dst ...[]byte) error {
		_, err := disk.ReadSectorsRetryInto(r.d, addr, 1, dst...)
		return err
	}
	for w := first; w*transferSectors < hi && w*transferSectors < r.area; w++ {
		if _, ok := r.runs[w]; ok {
			continue
		}
		run := logRun{buf: make([]byte, min(transferSectors, r.area-w*transferSectors)*disk.SectorSize)}
		var err error
		if run.dead, err = disk.ReadPast(r.base+w*transferSectors, run.buf, nil, read); err != nil {
			run.buf = nil
		}
		r.runs[w] = run
	}
}

// get serves the copy audit's walk: a sector comes from its run, which is read
// when the walk first reaches it, and is nil past the area's end, if it stayed
// unreadable, or if it does not check out. Every copy is read, needed or not:
// the audit owes each twin a verdict.
func (r *logRuns) get(off int, ok func([]byte) bool, _ bool) []byte {
	w, i := off/transferSectors, off%transferSectors
	if _, reached := r.runs[w]; !reached {
		r.load(off, off+1)
	}
	run := r.runs[w]
	if (i+1)*disk.SectorSize > len(run.buf) || slices.Contains(run.dead, r.base+off) {
		return nil
	}
	if buf := run.buf[i*disk.SectorSize : (i+1)*disk.SectorSize]; ok(buf) {
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
// repair path, which retires a stuck sector); nil means the log's own
// Config.Write. The force lock
// is held end-to-end, so the audited record set is frozen while staging
// continues in other goroutines.
func (l *Log) ScrubCopies(write func(addr int, data []byte) error) (LogScrubStats, error) {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	var st LogScrubStats
	if write == nil {
		write = l.cfg.Write
	}
	// The live log's anchor has moved since Open: the walk starts from the
	// current one, the copy the pair check kept.
	a, err := l.scrubAnchor(&st, write)
	if err != nil {
		return st, err
	}
	runs := &logRuns{d: l.d, base: l.base + anchorSectors, area: l.thirdLen() * l.divs, runs: make(map[int]logRun)}
	why, err := l.walk(a, runs, l.recordNum, func(rec *record) bool {
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
// rewriting a bad copy from the good one, and returns the anchor it kept:
// copy 0 if it is good, else copy 1 — the copy readAnchor chooses. Copies that
// both decode but differ were torn apart by a crash between the two anchor
// writes: the primary is written first, so it is the newer image.
func (l *Log) scrubAnchor(st *LogScrubStats, write func(addr int, data []byte) error) (anchor, error) {
	var bufs [2][]byte
	var as [2]anchor
	for i := range bufs {
		buf, err := l.d.ReadSectors(l.base+2*i, 1)
		st.SectorsChecked++
		if err == nil {
			var ok bool
			if as[i], ok = decodeAnchor(buf); ok {
				bufs[i] = buf
			}
		}
	}
	from, to := 0, 1
	switch {
	case bufs[0] == nil && bufs[1] == nil:
		return anchor{}, ErrAnchorLost
	case bufs[0] == nil:
		from, to = 1, 0
	case bufs[1] != nil && bytes.Equal(bufs[0], bufs[1]):
		return as[0], nil
	}
	if err := write(l.base+2*to, bufs[from]); err != nil {
		return anchor{}, err
	}
	st.Repaired++
	return as[from], nil
}
