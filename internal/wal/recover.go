package wal

import (
	"hash/crc32"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Open attaches to an existing log region for recovery and subsequent use.
// It reads the anchor (either copy) to learn the boot count; it does not
// replay anything — call Recover for that, which every mount should do
// (replaying a cleanly shut-down log is a no-op).
func Open(d *disk.Disk, base, size int, clk sim.Clock, cfg Config) (*Log, error) {
	l := &Log{d: d, base: base, size: size, clk: clk, cfg: cfg}
	a, err := l.readAnchor()
	if err != nil {
		return nil, err
	}
	l.bootCount = a.bootCount
	l.pendingIdx = make(map[imageKey]int)
	l.lastForce = clk.Now()
	l.openSeq = 1
	return l, nil
}

// RecoveryStats summarizes a replay.
type RecoveryStats struct {
	Records  int
	Images   int
	Repaired int // page images or headers recovered from their copy
	// TailDiscarded counts images of an incomplete final batch that were
	// found in the log but not applied (the force never finished).
	TailDiscarded int
	// TornRecords counts records with a valid header but no valid end-page
	// pair: the record write itself was torn by the crash. Replay stops at
	// the first one.
	TornRecords int
	// GapBreaks counts replay terminating at an invalid header after at
	// least one record had replayed — the ordinary crash tail, or a record
	// write lost entirely to drive-cache reordering.
	GapBreaks   int
	Elapsed     time.Duration
	SectorsRead int
}

// Applier receives each replayed page image in log order; applying the
// images in order reproduces the newest logged state of every page.
type Applier func(kind uint8, target uint64, data []byte) error

// Recover replays the log through apply, then resets the log to empty with
// an incremented boot count, exactly as the paper's ~1–25 second restart
// does: "log records are read and the copies of pages in the log are
// written to disk". A force that splits into several records is applied
// all-or-nothing: images are buffered until the record carrying the
// end-of-batch flag is validated, and an incomplete tail batch at the crash
// point is discarded.
//
// Recover is the single-step form for callers whose applier writes every
// image home before returning. A mount that buffers the replayed images and
// writes them home afterwards must use the re-entrant split instead —
// Replay, then the home writes, then a barrier, then CompleteRecovery — or a
// crash between the reset and the home writes silently loses committed
// updates (the next mount would replay an empty log over stale home copies).
func (l *Log) Recover(apply Applier) (RecoveryStats, error) {
	rs, err := l.Replay(apply)
	if err != nil {
		return rs, err
	}
	start := l.clk.Now()
	if err := l.CompleteRecovery(); err != nil {
		return rs, err
	}
	rs.Elapsed += l.clk.Now() - start
	return rs, nil
}

// Replay replays the log through apply without resetting it: no sector is
// written, and the log remains exactly as the crash left it, so replay can
// run again after a second crash and reproduce the same images. Writable
// mounts call it, write every replayed image home, issue a disk barrier,
// and only then call CompleteRecovery; a read-only mount calls it alone.
func (l *Log) Replay(apply Applier) (RecoveryStats, error) {
	// Replay owns the write path (forceMu) — nothing may force while the
	// log is being read. Recovery runs before the volume admits
	// operations, so there are no concurrent stagers either.
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	start := l.clk.Now()
	var rs RecoveryStats
	boot, err := l.replay(apply, &rs)
	if err != nil {
		return rs, err
	}
	l.bootCount = boot
	rs.Elapsed = l.clk.Now() - start
	return rs, nil
}

// CompleteRecovery restarts the log empty under a new boot count, so stale
// records can never be confused with new ones. The caller must first have
// made every replayed image durable in its home location (and issued a disk
// barrier): the reset is the point of no return after which the old records
// are unreachable. The reset itself is crash-atomic — the anchor copies are
// written under a fresh boot count, so a torn reset leaves either the old
// anchor (the next mount replays the whole log again, idempotently) or the
// new one (under which no stale record validates, because every surviving
// record carries the previous boot count).
func (l *Log) CompleteRecovery() error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	l.bootCount++
	l.recordNum = 1
	l.writeOff = 0
	l.curThird = 0
	l.thirdFirst = [8]uint64{}
	if err := l.writeAnchor(anchor{bootCount: l.bootCount, offset: 0, recordNum: 1}); err != nil {
		return err
	}
	if err := l.writeData(l.base+anchorSectors, make([]byte, disk.SectorSize)); err != nil {
		return err
	}
	l.mu.Lock()
	l.lastForce = l.clk.Now()
	l.mu.Unlock()
	return nil
}

// replay is the shared replay loop; it returns the boot count read from the
// anchor. Caller holds forceMu.
func (l *Log) replay(apply Applier, rs *RecoveryStats) (uint32, error) {
	a, err := l.readAnchor()
	if err != nil {
		return 0, err
	}
	off := int(a.offset)
	rec := a.recordNum
	boot := a.bootCount
	area := l.thirdLen() * l.thirds()
	maxSectors := area + l.thirdLen() // safety bound
	skipped := false
	// Images of the in-progress (not yet end-flagged) batch.
	type pendImg struct {
		kind   uint8
		target uint64
		data   []byte
	}
	var batch []pendImg

	for rs.SectorsRead < maxSectors {
		h, hdrOK, viaCopy := l.readHeader(off, rec, boot)
		rs.SectorsRead += 2
		if !hdrOK {
			// The writer may have skipped the tail of a third
			// because the next record did not fit; try exactly one
			// jump to the next third start.
			if skipped || off%l.thirdLen() == 0 {
				if rs.Records > 0 {
					rs.GapBreaks++
				}
				break
			}
			skipped = true
			off = ((off/l.thirdLen() + 1) % l.thirds()) * l.thirdLen()
			continue
		}
		if viaCopy {
			rs.Repaired++
		}
		recLen := 5 + 2*h.n
		if off+recLen > area {
			break // cannot be a complete record
		}
		// Read the record body (everything after the header pair) in
		// one transfer; individual damaged sectors fall back to the
		// per-sector path with copy repair.
		body, berr := l.readData(l.base+anchorSectors+off+3, recLen-3)
		if berr != nil {
			body = nil
		} else {
			rs.SectorsRead += recLen - 3
		}
		endAt := func(delta int) []byte {
			if body == nil {
				return nil
			}
			return body[(delta-3)*disk.SectorSize : (delta-2)*disk.SectorSize]
		}
		// Validate the end page (and its copy) before trusting the
		// data pages: a record without a valid end pair was torn by
		// the crash and is discarded, terminating replay.
		endOK := false
		if e := endAt(3 + h.n); e != nil && l.validEnd(e, rec, boot) {
			endOK = true
		} else if e := endAt(4 + 2*h.n); e != nil && l.validEnd(e, rec, boot) {
			endOK = true
			rs.Repaired++
		} else if body == nil && l.readEnd(off, h.n, rec, boot, rs) {
			endOK = true
		}
		if !endOK {
			// A header validated only through its copy can be a
			// mirage: when a record ends within two sectors of a
			// third boundary, the "copy" position lands on the next
			// third's first record. A genuine record would have a
			// valid end pair, so on failure retry at the third
			// start before concluding the log is torn.
			if viaCopy && !skipped && off%l.thirdLen() != 0 {
				skipped = true
				rs.Repaired--
				off = ((off/l.thirdLen() + 1) % l.thirds()) * l.thirdLen()
				continue
			}
			rs.TornRecords++
			break
		}
		skipped = false
		// Apply each data page, repairing from the second copy on
		// damage or checksum mismatch.
		abort := false
		for i := 0; i < h.n; i++ {
			var data []byte
			var rep, ok bool
			if body != nil {
				first := endAt(3 + i)
				if crc32.ChecksumIEEE(first) == h.crcs[i] {
					data, ok = first, true
				} else if second := endAt(4 + h.n + i); crc32.ChecksumIEEE(second) == h.crcs[i] {
					data, rep, ok = second, true, true
				}
			}
			if !ok {
				data, rep, ok = l.readImage(off, h.n, i, h.crcs[i])
				rs.SectorsRead++
			}
			if !ok {
				abort = true
				break
			}
			if rep {
				rs.Repaired++
			}
			cp := make([]byte, len(data))
			copy(cp, data)
			batch = append(batch, pendImg{h.descs[i].Kind, h.descs[i].Target, cp})
		}
		if abort {
			// Both copies of an image are gone: outside the failure
			// model; stop replay at the damage.
			break
		}
		if h.endOfBatch {
			for _, im := range batch {
				if err := apply(im.kind, im.target, im.data); err != nil {
					return 0, err
				}
				rs.Images++
			}
			batch = batch[:0]
		}
		rs.Records++
		rec++
		off += recLen
		if off >= area {
			off = 0
		}
	}

	if len(batch) > 0 {
		// The crash tore a multi-record force: discard the partial
		// batch so it is applied all-or-nothing.
		rs.TailDiscarded = len(batch)
	}
	return boot, nil
}

// readHeader reads the header of the record expected at off, falling back
// to the header copy. It reports (header, valid, repairedFromCopy).
func (l *Log) readHeader(off int, rec uint64, boot uint32) (header, bool, bool) {
	addr := l.base + anchorSectors + off
	try := func(a int) (header, bool) {
		buf, err := l.readData(a, 1)
		if err != nil {
			return header{}, false
		}
		h, ok := decodeHeader(buf)
		if !ok || h.recordNum != rec || h.bootCount != boot {
			return header{}, false
		}
		return h, true
	}
	if h, ok := try(addr); ok {
		return h, true, false
	}
	if h, ok := try(addr + 2); ok {
		return h, true, true
	}
	return header{}, false, false
}

// readEnd validates the end page pair of the record at off with n images.
func (l *Log) readEnd(off, n int, rec uint64, boot uint32, rs *RecoveryStats) bool {
	addr := l.base + anchorSectors + off
	for i, delta := range []int{3 + n, 4 + 2*n} {
		buf, err := l.readData(addr+delta, 1)
		rs.SectorsRead++
		if err == nil && l.validEnd(buf, rec, boot) {
			if i == 1 {
				rs.Repaired++
			}
			return true
		}
	}
	return false
}

// readImage reads data page i of the record at off, preferring the first
// copy and repairing from the second. It reports (data, repaired, ok).
func (l *Log) readImage(off, n, i int, wantCRC uint32) ([]byte, bool, bool) {
	addr := l.base + anchorSectors + off
	first, err := l.readData(addr+3+i, 1)
	if err == nil && crc32.ChecksumIEEE(first) == wantCRC {
		return first, false, true
	}
	second, err := l.readData(addr+4+n+i, 1)
	if err == nil && crc32.ChecksumIEEE(second) == wantCRC {
		return second, true, true
	}
	return nil, false, false
}
