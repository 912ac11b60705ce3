package wal

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Open attaches to an existing log region for recovery and subsequent use.
// It reads the anchor (either copy) to learn the boot count and the division
// count Format recorded (cfg.Thirds is not read); it does not replay anything.
// After a crash, call Replay and, once the images are home, CompleteRecovery.
// After a clean shutdown there is nothing to replay: the volume's clean stamp
// is written only after a Checkpoint has put every logged image home, so the
// records hold nothing the home copies lack. A writable mount still calls
// CompleteRecovery, so those records can never replay after a later crash.
func Open(d *disk.Disk, base, size int, clk sim.Clock, cfg Config) (*Log, error) {
	cfg.deviceIO(d)
	l := &Log{d: d, base: base, size: size, clk: clk, cfg: cfg}
	a, err := l.readAnchor()
	if err != nil {
		return nil, err
	}
	l.bootCount, l.divs, l.opened = a.bootCount, a.thirds, a
	l.pendingIdx = make(map[imageKey]int)
	l.table = make(map[imageKey]entry)
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
	SectorsRead int // sectors replay asked the device for
}

// Replay reads the log without resetting it and returns the newest image of
// every (kind, target) its complete batches hold, sorted by kind and then
// target. It starts from the anchor Open read, which it does not read again.
// No sector is written, and the log remains exactly as the crash left it, so
// replay can run again after a second crash and return the same images.
// Writable mounts call it, write every returned image home, issue a disk
// barrier, and only then call CompleteRecovery; a read-only mount calls it
// alone.
func (l *Log) Replay() ([]PageImage, RecoveryStats, error) {
	// Replay owns the write path (forceMu) — nothing may force while the
	// log is being read. Recovery runs before the volume admits
	// operations, so there are no concurrent stagers either.
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	start := l.clk.Now()
	var rs RecoveryStats
	r := &bodyReader{l: l}
	// A force that splits into several records is applied all-or-nothing:
	// images wait here until the record carrying the end-of-batch flag
	// validates, and an incomplete tail batch at the crash point is dropped.
	// A later batch's image of a target replaces an earlier one's.
	var batch []PageImage
	newest := make(map[imageKey][]byte)
	why, err := l.walk(l.opened, r, math.MaxUint64, func(rec *record) bool {
		if !rec.complete() {
			return false
		}
		for _, p := range rec.pairs {
			if p.fromCopy() {
				rs.Repaired++
			}
		}
		for i, p := range rec.images() {
			d := rec.h.descs[i]
			batch = append(batch, PageImage{Kind: d.Kind, Target: d.Target, Data: bytes.Clone(p.good())})
		}
		rs.Records++
		if rec.h.endOfBatch {
			for _, im := range batch {
				newest[imageKey{im.Kind, im.Target}] = im.Data
			}
			rs.Images += len(batch)
			batch = batch[:0]
		}
		return true
	})
	if err != nil {
		return nil, rs, err
	}
	switch {
	case why == stopGap && rs.Records > 0:
		rs.GapBreaks++
	case why == stopTorn:
		rs.TornRecords++
	}
	rs.TailDiscarded = len(batch)
	rs.SectorsRead = r.sectors
	rs.Elapsed = l.clk.Now() - start
	out := make([]PageImage, 0, len(newest))
	for k, data := range newest {
		out = append(out, PageImage{Kind: k.kind, Target: k.target, Data: data})
	}
	slices.SortFunc(out, func(a, b PageImage) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Target, b.Target))
	})
	return out, rs, nil
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
	if err := l.cfg.Write(l.base+anchorSectors, make([]byte, disk.SectorSize)); err != nil {
		return err
	}
	l.mu.Lock()
	l.lastForce = l.clk.Now()
	l.mu.Unlock()
	return nil
}

// bodyReader is how replay — and Inspect, which lists what replay applies —
// reads a record: the header sector alone (its copy only if it fails), then
// everything after the header pair in one transfer, read past damage
// (disk.ReadPast), so no sector is read twice. A sector that stayed
// unreadable is never served: its zeroed bytes would pass the CRC of an
// all-zero image, so the dead list decides, not the bytes. It counts the
// sectors it asked for.
type bodyReader struct {
	l       *Log
	lo, hi  int    // the span of the last load
	body    []byte // its sectors; nil if the read failed on more than damage
	dead    []int  // the span's sectors that stayed unreadable, by device address
	sectors int
}

func (r *bodyReader) load(lo, hi int) {
	r.lo, r.hi, r.sectors = lo, hi, r.sectors+hi-lo
	r.body = make([]byte, (hi-lo)*disk.SectorSize)
	var err error
	if r.dead, err = disk.ReadPast(r.l.base+anchorSectors+lo, r.body, r.dead[:0], r.l.cfg.Read); err != nil {
		r.body = nil
	}
}

func (r *bodyReader) get(off int, ok func([]byte) bool, need bool) []byte {
	var buf []byte
	addr := r.l.base + anchorSectors + off
	switch {
	case off >= r.lo && off < r.hi:
		if r.body != nil && !slices.Contains(r.dead, addr) {
			buf = r.body[(off-r.lo)*disk.SectorSize:][:disk.SectorSize]
		}
	case need:
		r.sectors++
		buf = make([]byte, disk.SectorSize)
		if r.l.cfg.Read(addr, buf) != nil {
			return nil
		}
	}
	if buf == nil || !ok(buf) {
		return nil
	}
	return buf
}
