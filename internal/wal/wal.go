// Package wal implements FSD's physical redo log and group-commit engine,
// following Section 5.3 and 5.4 of the paper.
//
// The log is a circular region of sectors near the volume's centre
// cylinders, divided into thirds. Each record carries two copies of every
// logged 512-byte page image, laid out so that identical data never occupies
// adjacent sectors:
//
//	header | blank | header copy | data[0..n-1] | end | data copies | end copy
//
// which is 5 + 2n sectors — the paper's "five pages of overhead and write
// twice the data", making a one-page record 7 sectors and the largest
// permitted record (n = 39) 83 sectors, the maximum the paper observed.
//
// Updates are staged in a pending batch keyed by target page, so repeated
// updates to a hot page within one group-commit interval cost one logged
// image (the paper's "hot spot" effect). Force writes the batch as one or
// more records in a single synchronous disk operation each.
//
// The log keeps the thirds table: for each (kind, target), the newest
// committed image that is still only in the log, and the division holding
// it. An image enters the table once its force has passed the final barrier,
// never before, so the table holds only what a commit promised. When a write
// is about to enter a new third, the table's entries for that third are
// handed to the FlushHook (Due lists them) to be written home, the anchor in
// log pages 0 and 2 is advanced to the start of the new oldest third, and
// only then is the third overwritten. A batch's own records are not in the
// table until it commits, so no batch may reach a third that holds them:
// a batch that grows longer than one third is forced at once (Append, End).
// On average 5/6 of the log holds live history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Image kinds tag logged pages so recovery knows where home is. The WAL does
// not interpret them; the client's applier does, and drops a kind it does not
// know. Kind 3 is retired — it carried allocation-map sectors, a mode this
// file system no longer has, and an old log may still hold it — so the value
// must never be reused.
const (
	KindNameTable = 1 // target = name-table page id (written to both copies)
	KindLeader    = 2 // target = absolute sector address of a leader page
)

// MaxImagesPerRecord bounds a single record at 5+2*39 = 83 sectors.
const MaxImagesPerRecord = 39

// transferSectors is a full controller request (core's MaxTransferSectors):
// the unit Format erases in and ScrubCopies reads in.
const transferSectors = 64

const (
	anchorSectors = 4 // anchor at +0, copy at +2; +1 and +3 unused
	recMagic      = 0x10C0FFEE
	anchorMagic   = 0xA2C40855
	hdrFixed      = 24 // header bytes before descriptors
	descSize      = 9  // kind u8 | target u32 | crc u32
)

// Errors.
var (
	ErrAnchorLost   = errors.New("wal: both anchor copies unreadable")
	ErrBatchTooBig  = errors.New("wal: single update batch exceeds log capacity")
	ErrImageCorrupt = errors.New("wal: both copies of a logged page are damaged")
	ErrAborted      = errors.New("wal: an operation was aborted part-way; the log forces nothing more")
)

// PageImage is one 512-byte page staged for logging.
type PageImage struct {
	Kind   uint8
	Target uint64
	Data   []byte // exactly disk.SectorSize bytes
}

type imageKey struct {
	kind   uint8
	target uint64
}

// entry is one image of the thirds table: the staged sector itself, and the
// division its record landed in.
type entry struct {
	PageImage
	third int
}

// Stats describes log activity since Open.
type Stats struct {
	Forces           int // synchronous record writes triggered
	Records          int // records written
	ImagesStaged     int // images handed to Append
	ImagesLogged     int // images actually written (post-dedup)
	ImagesElided     int // images absorbed by a later update in the same batch
	SectorsWritten   int
	MinRecordSectors int
	MaxRecordSectors int
	ThirdCrossings   int
	HomeFlushes      int // items the FlushHook pushed home at third crossings (core: name-table sectors + leaders)
}

// Config parameterizes the log.
type Config struct {
	// Interval is the group-commit period; 0 forces at every Append
	// (the synchronous ablation). When Adaptive is set it is the ceiling
	// of the adaptive controller instead of a fixed period.
	Interval time.Duration
	// Thirds is the number of divisions Format lays the log out in; the
	// paper uses 3. Valid values are 2..8. Zero means 3. Format records it
	// in the anchor, and Open and Inspect take it from there — the log's
	// shape is the volume's, not the mount's — so only Format reads it.
	Thirds int
	// Adaptive enables the load-aware force deadline: instead of forcing
	// on a fixed Interval, the log tracks the per-image staging rate and
	// its own force latency (EWMAs over live signals) and sets the
	// deadline to the time needed to accumulate TargetImages images —
	// clamped between Floor and Interval. An idle log drifts to the Interval
	// ceiling (the paper's batching behaviour); a busy one forces as soon
	// as a record's worth of images is ready, but never so often that
	// force I/O exceeds a quarter of the duty cycle (the deadline is held
	// above four times the smoothed force latency). Ignored when Interval
	// is 0.
	Adaptive bool
	// WriteRetries bounds the in-place retries of a failed log-sector
	// write before the error escalates; independently of the retry
	// budget, a sector that stays damaged after a failed write is remapped
	// to a spare and the write repeated. Zero means 2; negative disables
	// retries (remapping still happens).
	WriteRetries int
	// ReadRetries bounds the in-place retries of a failed log-sector read
	// (anchor reads, recovery replay) before the failure is taken at face
	// value; a transient fault that clears on a re-read then never costs a
	// repair-from-copy or a replay break. A sector that stays unreadable is
	// not read again: replay takes its twin. Zero means 2; negative
	// disables retries.
	ReadRetries int
}

// Log is the redo log over a contiguous sector region of a disk.
//
// Concurrency (the pipelined group commit): staging and forcing run under
// two different locks. l.mu guards only the pending batch and the sequence
// counters, so Append never blocks behind log I/O. forceMu serializes force
// execution end-to-end — a force captures the pending batch under l.mu
// (atomically swapping in an empty one), releases l.mu, and then writes its
// records while new appends stage freely into the next batch. Every client
// callback (FlushHook, OnCommit, DataHook) is invoked under forceMu but
// never under l.mu, so callbacks may call Append.
//
// An operation that stages more than one image brackets them with Begin and
// End (the group, see Begin): the capture waits for every open group to end,
// so a batch — and therefore a crash — holds all of an operation's images or
// none of them.
//
// Each captured batch carries a commit sequence number. Append returns the
// sequence of the batch it staged into; WaitCommitted(seq) blocks (forcing
// if necessary) until that batch is durable. Sequence numbers advance even
// for empty batches, so waiting is always finite.
type Log struct {
	d    *disk.Disk
	base int // first sector of the region
	size int // total sectors including anchors
	divs int // division count, as the anchor records it
	clk  sim.Clock
	cfg  Config

	// FlushHook is invoked with the third index about to be overwritten
	// (-1 from Checkpoint): the client must write home every image Due
	// lists, and report how many it wrote. The images leave the table once
	// the hook returns nil; after an error they stay, and the next
	// crossing hands them over again.
	FlushHook func(third int) (int, error)
	// OnCommit is invoked after every successful force with the commit
	// sequence number that just became durable; FSD uses it to make the
	// pending deletions of batches <= seq final.
	OnCommit func(seq uint64)
	// DataHook, when set, is invoked (under forceMu) by every force that
	// writes records, once the batch is captured and before the data
	// barrier: the client writes the file data it has held in memory for
	// the operations of this batch and others, which the barrier then makes
	// durable ahead of the records. An error fails the force as a failed
	// barrier does, with the batch restored.
	DataHook func() error
	// OnForce, when set, is invoked (under forceMu) after every force
	// that wrote records, with the batch's group-commit measurements.
	// The observability layer feeds its batching histograms from it.
	OnForce func(ForceEvent)
	// OnAppend, when set, is invoked after images are staged by Append,
	// with the image count and the commit sequence they joined. Called
	// without l.mu held.
	OnAppend func(images int, seq uint64)
	// OnWriteFault, when set, is invoked after any log write that needed
	// the fault path: retried in-place retries and remapped spare-sector
	// retirements were spent, and err is the final outcome (nil when the
	// write eventually succeeded). The volume charges its health error
	// budget from it. Called without l.mu held.
	OnWriteFault func(retried, remapped int, err error)
	// OnReadFault, when set, is invoked after any log read that needed the
	// fault path: retried in-place retries were spent, and err is the final
	// outcome (nil when the read eventually succeeded). Recovery wires it to
	// the volume's health error budget, so a replay that barely limps
	// through decayed media mounts Degraded instead of silently Healthy.
	// Called without l.mu held.
	OnReadFault func(retried int, err error)

	// mu guards the staging state only: pending, pendingIdx, free, spare,
	// openSeq, lastForce, stats, and the adaptive-controller EWMAs. It is
	// never held across disk I/O or callbacks.
	//
	// The Data of a pending image is a sector the log owns: stage copies the
	// caller's bytes into one drawn from free (or, for an image that replaces
	// one of the same batch, into that image's own). The sector moves into
	// the table when its batch commits, and goes back to free when a newer
	// commit of its key replaces it or once it is home. spare is the emptied
	// slice of the last batch forced, which the next capture makes the
	// pending one.
	mu         sync.Mutex
	pending    []PageImage
	pendingIdx map[imageKey]int
	free       [][]byte
	spare      []PageImage
	table      map[imageKey]entry // the thirds table (package doc)
	openSeq    uint64             // sequence number of the batch currently staging
	lastForce  time.Duration
	stats      Stats

	// Adaptive-controller state (meaningful only when cfg.Adaptive).
	// ewmaGap is the smoothed interval between staged images — the
	// inverse of the offered load; ewmaForce is the smoothed duration of
	// a record-writing force. Both are zero until their first sample.
	ewmaGap   time.Duration
	ewmaForce time.Duration
	lastStage time.Duration

	// committedSeq is the newest durable batch sequence (0 = none yet).
	// Written under forceMu; read lock-free by Committed().
	committedSeq atomic.Uint64

	// group is the operation bracket: Begin holds it shared until End, the
	// force takes it exclusively while it cuts the pending batch. open counts
	// the groups open now; with Interval == 0 it is what tells Append that the
	// force it owes will be paid by an End.
	group   sync.RWMutex
	open    atomic.Int32
	aborted atomic.Bool // set by Abort: the pending batch holds part of an operation

	// forceMu serializes force execution and owns the write-path state
	// below (plus all callback invocations).
	forceMu    sync.Mutex
	recordNum  uint64
	bootCount  uint32
	writeOff   int       // sector offset within the record area
	curThird   int       // division currently being filled
	thirdFirst [8]uint64 // first record number written into each division
	// recBuf is where writeRecord assembles a record. One buffer serves every
	// record: the disk (its write-back journal included) copies what it is
	// given, and forceMu admits one writeRecord at a time.
	recBuf []byte
	// landed lists the images the force in progress has written, each with
	// its record's division: the table entries its commit makes. due is what
	// the FlushHook being called may write home (Due).
	landed []entry
	due    []PageImage
}

// freeImagesMax bounds the free list (at 512 KB): more than a steady load
// keeps pending between two forces, so that one burst's sectors are not held
// for ever after.
const freeImagesMax = 1024

// retries returns an in-place retry budget as Config sets it: zero means 2,
// negative none.
func retries(n int) int {
	switch {
	case n < 0:
		return 0
	case n == 0:
		return 2
	}
	return n
}

// readData reads a run of log sectors into dst with the bounded-retry
// policy, reporting any fault-path activity to OnReadFault. Every recovery
// read (anchors, headers, record bodies read past damage) goes through here,
// so a transient fault never breaks a replay that a re-read could save.
func (l *Log) readData(addr int, dst ...[]byte) error {
	retried, err := disk.ReadSectorsRetryInto(l.d, addr, retries(l.cfg.ReadRetries), dst...)
	if (retried > 0 || err != nil) && l.OnReadFault != nil {
		l.OnReadFault(retried, err)
	}
	return err
}

// writeData writes a run of log sectors with the bounded-retry and
// automatic-remap policy, reporting any fault-path activity to OnWriteFault.
// Every log write (anchors, record area, format erase) goes through here, so
// a marginal sector never fails a commit that a retry or a spare could save.
func (l *Log) writeData(addr int, data []byte) error {
	retried, remapped, err := disk.WriteSectorsRetry(l.d, addr, data, retries(l.cfg.WriteRetries))
	if (retried > 0 || remapped > 0 || err != nil) && l.OnWriteFault != nil {
		l.OnWriteFault(retried, remapped, err)
	}
	return err
}

// recArea returns the sector count of the record area.
func (l *Log) recArea() int { return l.size - anchorSectors }

// thirdLen returns the sector length of one division.
func (l *Log) thirdLen() int { return l.recArea() / l.divs }

// MinSize returns the smallest legal log region for a given division count:
// each division must hold the largest record.
func MinSize(thirds int) int {
	if thirds == 0 {
		thirds = 3
	}
	return anchorSectors + thirds*(5+2*MaxImagesPerRecord)
}

// anchor is the replicated pointer in log pages 0 and 2. It also records the
// log's division count, in the top byte of the record-number field (record
// numbers restart at 1 with every boot and never reach 2^56), under the
// anchor's checksum. An anchor written before the count was recorded has a
// zero there, which reads as the paper's 3.
type anchor struct {
	bootCount uint32
	offset    uint32 // record-area offset of the first valid record
	recordNum uint64 // its record number
	thirds    int
}

func encodeAnchor(a anchor) []byte {
	buf := make([]byte, disk.SectorSize)
	binary.BigEndian.PutUint32(buf[0:], anchorMagic)
	binary.BigEndian.PutUint32(buf[4:], a.bootCount)
	binary.BigEndian.PutUint32(buf[8:], a.offset)
	binary.BigEndian.PutUint64(buf[12:], a.recordNum)
	buf[12] = byte(a.thirds) // over the record number's top byte
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return buf
}

// decodeAnchor decodes an anchor sector; a buffer shorter than a sector is
// refused like a bad magic or checksum.
func decodeAnchor(buf []byte) (anchor, bool) {
	if len(buf) < disk.SectorSize || binary.BigEndian.Uint32(buf[0:]) != anchorMagic {
		return anchor{}, false
	}
	if binary.BigEndian.Uint32(buf[20:]) != crc32.ChecksumIEEE(buf[:20]) {
		return anchor{}, false
	}
	a := anchor{
		bootCount: binary.BigEndian.Uint32(buf[4:]),
		offset:    binary.BigEndian.Uint32(buf[8:]),
		recordNum: binary.BigEndian.Uint64(buf[12:]) & (1<<56 - 1),
		thirds:    int(buf[12]),
	}
	if a.thirds == 0 {
		a.thirds = 3
	}
	return a, true
}

// writeAnchor writes both anchor copies (two operations: the copies must
// have independent failure modes, so they are never in one transfer). Both
// sides are fenced: whatever the new anchor supersedes (home flushes at a
// third crossing) must be durable before either copy can point past it, and
// the anchor itself must be durable before the third it releases is
// overwritten.
func (l *Log) writeAnchor(a anchor) error {
	a.thirds = l.divs
	buf := encodeAnchor(a)
	if err := l.d.Sync(); err != nil {
		return err
	}
	if err := l.writeData(l.base+0, buf); err != nil {
		return err
	}
	if err := l.writeData(l.base+2, buf); err != nil {
		return err
	}
	return l.d.Sync()
}

// readAnchor returns the first readable, valid anchor copy.
func (l *Log) readAnchor() (anchor, error) {
	for _, off := range []int{0, 2} {
		buf := make([]byte, disk.SectorSize)
		if err := l.readData(l.base+off, buf); err != nil {
			continue
		}
		if a, ok := decodeAnchor(buf); ok {
			return a, nil
		}
	}
	return anchor{}, ErrAnchorLost
}

// Format initializes an empty log in [base, base+size) with boot count 1,
// divided into cfg.Thirds divisions; the anchor records the count.
func Format(d *disk.Disk, base, size int, clk sim.Clock, cfg Config) (*Log, error) {
	l := &Log{d: d, base: base, size: size, divs: cfg.Thirds, clk: clk, cfg: cfg}
	if l.divs == 0 {
		l.divs = 3
	}
	if l.divs < 2 || l.divs > len(l.thirdFirst) {
		return nil, fmt.Errorf("wal: %d log divisions (want 2..%d)", l.divs, len(l.thirdFirst))
	}
	if size < MinSize(l.divs) {
		return nil, fmt.Errorf("wal: log of %d sectors too small (min %d)", size, MinSize(l.divs))
	}
	l.bootCount = 1
	l.recordNum = 1
	if err := l.writeAnchor(anchor{bootCount: 1, offset: 0, recordNum: 1}); err != nil {
		return nil, err
	}
	// Erase the whole record area. A format over a previously used region
	// (the salvage path) restarts boot and record counters at 1, so any
	// stale record left beyond the new session's tail could splice onto it
	// during a later recovery; zeroing leaves nothing that checksums.
	const eraseChunk = transferSectors
	zero := make([]byte, eraseChunk*disk.SectorSize)
	area := l.thirdLen() * l.divs
	for off := 0; off < area; off += eraseChunk {
		n := eraseChunk
		if off+n > area {
			n = area - off
		}
		if err := l.writeData(l.base+anchorSectors+off, zero[:n*disk.SectorSize]); err != nil {
			return nil, err
		}
	}
	l.lastForce = clk.Now()
	l.pendingIdx = make(map[imageKey]int)
	l.table = make(map[imageKey]entry)
	l.openSeq = 1
	return l, nil
}

// Stats returns a snapshot of the activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// ResetStats zeroes the counters.
func (l *Log) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{}
}

// PendingImages returns the number of staged, not yet forced images.
func (l *Log) PendingImages() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Append stages page images for the next force and returns the commit
// sequence number of the batch they joined: once Committed() reaches that
// number the images are durable. Within a batch, a later image of the same
// (kind, target) replaces the earlier one — this is where group commit
// absorbs hot-spot writes. The batch is forced before returning if the
// configured interval is zero (the synchronous ablation) or if it has grown
// longer than one third (the batch bound, package doc) — unless a group is
// open, whose End forces instead: a force waits for the groups to end, so
// one from inside a group would wait for itself. (Whose group is immaterial:
// an Append made outside any, while another goroutine's is open, rides that
// group's force.) Otherwise Append never blocks behind log I/O, even while a
// force is writing records.
func (l *Log) Append(images ...PageImage) (uint64, error) {
	seq, err := l.stage(images)
	if err != nil {
		return 0, err
	}
	if l.OnAppend != nil {
		l.OnAppend(len(images), seq)
	}
	if l.open.Load() == 0 && (l.cfg.Interval == 0 || l.long()) {
		return seq, l.Force()
	}
	return seq, nil
}

// Begin opens a group: the images appended from here to the matching End
// belong to one operation, and no force captures some of them without the
// rest. Groups of different goroutines run side by side; they do not nest —
// a second Begin on a goroutine that holds one parks behind a waiting force
// (sync.RWMutex admits no reader past a waiting writer), which waits for the
// first. For the same reason nothing inside a group may wait for a force.
func (l *Log) Begin() {
	l.group.RLock()
	l.open.Add(1)
}

// End closes the group. With Interval == 0 it pays the force the group's
// Appends left to it, so a synchronous log forces once per operation; it
// also forces a batch the group has left longer than one third.
func (l *Log) End() error {
	l.leave()
	if l.cfg.Interval == 0 || l.long() {
		return l.Force()
	}
	return nil
}

// Abort closes a group whose operation failed part-way. What the group
// staged stays in the pending batch, so from here on every force — one
// already waiting for this group included — fails with ErrAborted: the log
// stays as the last force left it, and replay yields the state before the
// operation. (core demotes the volume to read-only with it.)
func (l *Log) Abort() {
	l.aborted.Store(true)
	l.leave()
}

func (l *Log) leave() {
	l.open.Add(-1)
	l.group.RUnlock()
}

// ewmaShift is the smoothing factor of the controller's moving averages:
// new = old + (sample-old)/2^ewmaShift.
const ewmaShift = 3

// long reports whether the pending batch, laid out as records, is longer
// than one third.
func (l *Log) long() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.pending)
	return 5*((n+MaxImagesPerRecord-1)/MaxImagesPerRecord)+2*n > l.thirdLen()
}

// stage adds images to the pending batch without triggering a force and
// returns the batch's sequence number.
func (l *Log) stage(images []PageImage) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Adaptive() && len(images) > 0 {
		now := l.clk.Now()
		if l.lastStage > 0 && now >= l.lastStage {
			gap := (now - l.lastStage) / time.Duration(len(images))
			if l.ewmaGap == 0 {
				l.ewmaGap = gap
			} else {
				l.ewmaGap += (gap - l.ewmaGap) >> ewmaShift
			}
		}
		l.lastStage = now
	}
	for _, im := range images {
		if len(im.Data) != disk.SectorSize {
			return 0, fmt.Errorf("wal: image of %d bytes, want %d", len(im.Data), disk.SectorSize)
		}
		if im.Target > 0xFFFFFFFF {
			return 0, fmt.Errorf("wal: target %d exceeds 32 bits", im.Target)
		}
		l.stats.ImagesStaged++
		k := imageKey{im.Kind, im.Target}
		if i, ok := l.pendingIdx[k]; ok {
			copy(l.pending[i].Data, im.Data)
			l.stats.ImagesElided++
			continue
		}
		var cp []byte
		if n := len(l.free); n > 0 {
			cp, l.free = l.free[n-1], l.free[:n-1]
		} else {
			cp = make([]byte, disk.SectorSize)
		}
		copy(cp, im.Data)
		im.Data = cp
		l.pendingIdx[k] = len(l.pending)
		l.pending = append(l.pending, im)
	}
	return l.openSeq, nil
}

// recycle puts a staged sector nothing refers to any more on the free list.
// Caller holds l.mu.
func (l *Log) recycle(sector []byte) {
	if len(l.free) < freeImagesMax {
		l.free = append(l.free, sector)
	}
}

// Seq returns the sequence number covering everything staged so far: once
// Committed() >= Seq()'s return value, every image staged before the call
// is durable. With nothing pending it names the last captured batch.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) > 0 {
		return l.openSeq
	}
	return l.openSeq - 1
}

// Committed returns the newest durable batch sequence number.
func (l *Log) Committed() uint64 { return l.committedSeq.Load() }

// WaitCommitted blocks until batch seq is durable, forcing the log as
// needed (the fsync of the pipelined commit: callers that staged updates
// and hold the returned sequence can make them durable on demand without
// serializing other appenders).
func (l *Log) WaitCommitted(seq uint64) error {
	for l.committedSeq.Load() < seq {
		// Force serializes behind any in-flight force (which may itself
		// commit seq) and then captures whatever is pending; every force
		// advances the committed sequence, so this loop terminates.
		if err := l.Force(); err != nil {
			return err
		}
	}
	return nil
}

// Floor is the shortest deadline the adaptive controller may choose.
const Floor = 5 * time.Millisecond

// TargetImages is the batch size the adaptive deadline aims to accumulate
// per force.
const TargetImages = 16

// deadlineLocked returns the current force deadline: the fixed Interval, or
// — in adaptive mode — the estimated time to accumulate TargetImages at the
// observed staging rate, held above both Floor and four times the
// smoothed force latency (so force I/O never exceeds a quarter of the duty
// cycle — under sustained load the controller backs off toward bigger
// batches instead of thrashing the disk with forces) and below the Interval
// ceiling. Before the first staging sample the deadline is the ceiling,
// preserving the paper's behaviour on an idle or cold log. Caller holds
// l.mu.
func (l *Log) deadlineLocked() time.Duration {
	if !l.Adaptive() {
		return l.cfg.Interval
	}
	if l.ewmaGap == 0 {
		return l.cfg.Interval
	}
	d := l.ewmaGap * TargetImages
	if min := 4 * l.ewmaForce; d < min {
		d = min
	}
	if d < Floor {
		d = Floor
	}
	if d > l.cfg.Interval {
		d = l.cfg.Interval
	}
	return d
}

// Adaptive reports whether the adaptive controller sets the force deadline:
// Config.Adaptive, on a log that does not force at every Append.
func (l *Log) Adaptive() bool { return l.cfg.Adaptive && l.cfg.Interval != 0 }

// Deadline returns the force deadline currently in effect: Interval in fixed
// mode, the adaptive controller's choice in adaptive mode, 0 in synchronous
// mode.
func (l *Log) Deadline() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deadlineLocked()
}

// MaybeForce forces the log if the force deadline has elapsed since the last
// force — or, in adaptive mode, as soon as a full record's worth of images
// is pending (forcing then costs no extra record overhead). The file system
// calls it at operation boundaries and from an idle Tick.
func (l *Log) MaybeForce() error {
	l.mu.Lock()
	due := len(l.pending) > 0 &&
		(l.clk.Now()-l.lastForce >= l.deadlineLocked() ||
			(l.Adaptive() && len(l.pending) >= MaxImagesPerRecord))
	l.mu.Unlock()
	if !due {
		return nil
	}
	if !l.forceMu.TryLock() {
		// A force is already in flight: it captured everything staged
		// before it, and anything staged since is younger than one
		// interval. Do not queue the caller behind its I/O.
		return nil
	}
	defer l.forceMu.Unlock()
	return l.forceLocked()
}

// Force synchronously writes all staged images to the log, in one record
// per MaxImagesPerRecord images, then fires OnCommit. An empty batch writes
// nothing (an empty record would place its end page copies adjacently) but
// still advances the committed sequence.
func (l *Log) Force() error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	return l.forceLocked()
}

// ForceEvent reports one group commit that wrote records: how many images
// the batch carried, how they packed into records and sectors, the
// simulated time since the previous force started (the group-commit
// interval actually achieved), and how long the force itself took.
type ForceEvent struct {
	Seq      uint64
	Images   int
	Records  int
	Sectors  int
	Interval time.Duration
	Duration time.Duration
}

// forceLocked is the force body; the caller holds forceMu.
func (l *Log) forceLocked() error {
	// The capture of the pending batch waits for the open groups and keeps
	// new ones out, so the batch is cut between operations, never inside
	// one. The record writes below run with the bracket released.
	l.group.Lock()
	if l.aborted.Load() {
		l.group.Unlock()
		return ErrAborted
	}
	start := l.clk.Now()
	l.mu.Lock()
	batch := l.pending
	seq := l.openSeq
	l.openSeq++
	l.pending, l.spare = l.spare, nil
	clear(l.pendingIdx)
	prevForce := l.lastForce
	l.lastForce = l.clk.Now()
	if len(batch) > 0 {
		l.stats.Forces++
	}
	l.mu.Unlock()
	l.group.Unlock()

	// Record writing happens outside l.mu: new appends stage into the
	// next batch while these records hit the disk. Whichever way the force
	// ends, the batch has by then been copied back into the pending one
	// (restoreBatch) or committed into the table, and its slice is free.
	defer func(whole []PageImage) {
		l.mu.Lock()
		l.spare = whole[:0]
		l.mu.Unlock()
	}(batch)
	// A failed force must not lose staged updates, and none of its batch
	// committed: the whole batch goes back into the pending one, so a later
	// Force retries it and commits the same images under a newer sequence
	// (which also satisfies waiters of this one). committedSeq stays put, so
	// no waiter observes a phantom commit. Records already written this
	// force are harmless: they lack the end-of-batch flag (or their flagged
	// record's barrier failed), so recovery either discards them or groups
	// them with the retry's, whose images are the same or newer.
	fail := func(err error) error {
		l.restoreBatch(batch)
		return err
	}
	wrote := len(batch) > 0
	if wrote {
		// Barrier: file data and leader pages written for the operations
		// in this batch were issued before their images were staged, or
		// are issued now by DataHook, so they must be durable before the
		// record that commits them — a reordering drive could otherwise
		// land the record first and replay would resurrect an entry whose
		// pages never arrived.
		if l.DataHook != nil {
			if err := l.DataHook(); err != nil {
				return fail(err)
			}
		}
		if err := l.d.Sync(); err != nil {
			return fail(err)
		}
	}
	var recs, secs int
	l.landed = l.landed[:0]
	for rest := batch; len(rest) > 0; {
		consumed, err := l.writeRecord(rest)
		if err != nil {
			return fail(err)
		}
		for _, im := range rest[:consumed] {
			l.landed = append(l.landed, entry{im, l.curThird})
		}
		recs++
		secs += 5 + 2*consumed
		rest = rest[consumed:]
	}
	if wrote {
		// Barrier: the records themselves must be durable before the
		// commit is acknowledged to waiting clients.
		if err := l.d.Sync(); err != nil {
			return fail(err)
		}
	}
	// The batch has committed: its images enter the table, each replacing
	// (and freeing the sector of) its key's older committed image, before
	// anyone can see the commit — a page whose images are neither pending
	// nor in the table is home (Logged).
	l.mu.Lock()
	for _, e := range l.landed {
		k := imageKey{e.Kind, e.Target}
		if old, ok := l.table[k]; ok {
			l.recycle(old.Data)
		}
		l.table[k] = e
	}
	l.mu.Unlock()
	clear(l.landed) // drops the sectors it pinned
	l.committedSeq.Store(seq)
	dur := l.clk.Now() - start
	if wrote && l.Adaptive() {
		l.mu.Lock()
		if l.ewmaForce == 0 {
			l.ewmaForce = dur
		} else {
			l.ewmaForce += (dur - l.ewmaForce) >> ewmaShift
		}
		l.mu.Unlock()
	}
	if l.OnCommit != nil {
		l.OnCommit(seq)
	}
	if wrote && l.OnForce != nil {
		l.OnForce(ForceEvent{
			Seq:      seq,
			Images:   len(batch),
			Records:  recs,
			Sectors:  secs,
			Interval: start - prevForce,
			Duration: dur,
		})
	}
	return nil
}

// writeRecord lays out and writes one record at the current offset, taking
// up to MaxImagesPerRecord images from batch and returning how many it
// consumed. It handles third transitions, and it never lets a record end
// exactly two sectors before a third boundary: at that offset a phantom
// record's header-copy and end-copy positions coincide with the next
// record's primary header and end page, so recovery could lock onto a
// misaligned mirage. The record either moves to the next third or sheds
// one image to change its length. The final record of a force carries the
// end-of-batch flag; recovery applies a multi-record batch only when its
// flagged record survives, so a force can never be half-applied. Caller
// holds forceMu (never l.mu — staging continues while records are written).
func (l *Log) writeRecord(batch []PageImage) (int, error) {
	n := len(batch)
	if n > MaxImagesPerRecord {
		n = MaxImagesPerRecord
	}
	recLen := 5 + 2*n
	tl := l.thirdLen()
	if recLen > tl {
		return 0, ErrBatchTooBig
	}
	// Move to the next third if the record does not fit in the space
	// remaining in the current one, or if it would end at the dangerous
	// boundary-2 offset.
	end := l.writeOff + recLen
	boundary := (l.curThird + 1) * tl
	if end > boundary || boundary-end == 2 {
		if l.writeOff == l.curThird*tl {
			// Already at the third start (so moving thirds cannot
			// help): shrink the record by one image instead; the
			// dropped image rides the next record. n >= 2 here
			// because tl >= 5+2*MaxImagesPerRecord >> 9.
			n--
			recLen -= 2
		} else {
			next := (l.curThird + 1) % l.divs
			if err := l.enterThird(next); err != nil {
				return 0, err
			}
			l.curThird = next
			l.writeOff = next * tl
			// Re-check the boundary-2 hazard at the new position.
			if (l.curThird+1)*tl-(l.writeOff+recLen) == 2 {
				n--
				recLen -= 2
			}
		}
	}
	images := batch[:n]
	endOfBatch := n == len(batch)
	if l.thirdFirst[l.curThird] == 0 {
		l.thirdFirst[l.curThird] = l.recordNum
	}

	// Assemble in the log's one record buffer, every sector of the record
	// written here: the last record's bytes are still in it.
	if l.recBuf == nil {
		l.recBuf = make([]byte, (5+2*MaxImagesPerRecord)*disk.SectorSize)
	}
	buf := l.recBuf[:recLen*disk.SectorSize]
	sector := func(i int) []byte { return buf[i*disk.SectorSize : (i+1)*disk.SectorSize] }
	l.encodeHeader(sector(0), images, endOfBatch)
	clear(sector(1)) // blank
	copy(sector(2), sector(0))
	l.encodeEnd(sector(3 + n))
	copy(sector(4+2*n), sector(3+n))
	for i, im := range images {
		copy(sector(3+i), im.Data)
		copy(sector(4+n+i), im.Data)
	}

	addr := l.base + anchorSectors + l.writeOff
	if err := l.writeData(addr, buf); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.stats.Records++
	l.stats.ImagesLogged += n
	l.stats.SectorsWritten += recLen
	if recLen > l.stats.MaxRecordSectors {
		l.stats.MaxRecordSectors = recLen
	}
	if l.stats.MinRecordSectors == 0 || recLen < l.stats.MinRecordSectors {
		l.stats.MinRecordSectors = recLen
	}
	l.mu.Unlock()
	l.writeOff += recLen
	l.recordNum++
	return n, nil
}

// restoreBatch returns the batch of a failed force to the pending one, so a
// write fault never drops a staged update. An image whose key has been
// re-staged since the batch was captured is discarded — the pending copy is
// newer — and its sector goes back to the free list; the sectors of the
// images put back stay theirs.
func (l *Log) restoreBatch(batch []PageImage) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, im := range batch {
		k := imageKey{im.Kind, im.Target}
		if _, ok := l.pendingIdx[k]; ok {
			l.recycle(im.Data)
			continue
		}
		l.pendingIdx[k] = len(l.pending)
		l.pending = append(l.pending, im)
	}
}

// enterThird prepares third t for overwriting: hand the table's images in
// t home, then advance the anchor to the following third. Caller holds
// forceMu, so no commit changes the table while the hook runs.
func (l *Log) enterThird(t int) error {
	l.mu.Lock()
	l.stats.ThirdCrossings++
	l.mu.Unlock()
	n, err := l.handHome(t)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.stats.HomeFlushes += n
	l.mu.Unlock()
	// Third t's content has been flushed home, so its records are no
	// longer needed. The new oldest valid record is the earliest
	// (lowest-numbered) first record among the remaining thirds; if no
	// other third holds data, it is the record about to be written at
	// the start of t.
	l.thirdFirst[t] = 0
	best := -1
	for c := 0; c < l.divs; c++ {
		if c == t || l.thirdFirst[c] == 0 {
			continue
		}
		if best < 0 || l.thirdFirst[c] < l.thirdFirst[best] {
			best = c
		}
	}
	a := anchor{bootCount: l.bootCount}
	if best < 0 {
		a.offset = uint32(t * l.thirdLen())
		a.recordNum = l.recordNum
	} else {
		a.offset = uint32(best * l.thirdLen())
		a.recordNum = l.thirdFirst[best]
	}
	return l.writeAnchor(a)
}

// handHome lists the table's images in division t (every image, for t = -1)
// as Due, calls FlushHook to write them home, and drops them from the table
// once it has; a failed hook leaves them there, so the next crossing redoes
// the flush whole. Caller holds forceMu.
func (l *Log) handHome(t int) (int, error) {
	l.mu.Lock()
	for _, e := range l.table {
		if t < 0 || e.third == t {
			l.due = append(l.due, e.PageImage)
		}
	}
	l.mu.Unlock()
	defer func() {
		clear(l.due) // drops the sectors it pinned
		l.due = l.due[:0]
	}()
	n := 0
	if l.FlushHook != nil {
		var err error
		if n, err = l.FlushHook(t); err != nil {
			return 0, err
		}
	}
	l.mu.Lock()
	for _, im := range l.due {
		delete(l.table, imageKey{im.Kind, im.Target})
		l.recycle(im.Data)
	}
	l.mu.Unlock()
	return n, nil
}

// Due lists the images FlushHook must write home: the committed images of
// the third being entered, or every committed image not yet home when
// Checkpoint calls it. It may be called only from inside the hook, and the
// images are lent for the hook's call.
func (l *Log) Due() []PageImage { return l.due }

// Logged reports whether the table holds a committed image of (kind,
// target): one whose only durable copy is in the log.
func (l *Log) Logged(kind uint8, target uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.table[imageKey{kind, target}]
	return ok
}

// Checkpoint forces the log, then hands every image in the table to
// FlushHook (with third -1), so that once it returns nil everything the log
// has committed is home. Format, clean shutdown and salvage's rebuild end
// with it.
func (l *Log) Checkpoint() error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	if err := l.forceLocked(); err != nil {
		return err
	}
	_, err := l.handHome(-1)
	return err
}

// encodeHeader makes the sector buf the header page of the next record.
func (l *Log) encodeHeader(buf []byte, images []PageImage, endOfBatch bool) {
	clear(buf)
	binary.BigEndian.PutUint32(buf[0:], recMagic)
	binary.BigEndian.PutUint64(buf[4:], l.recordNum)
	binary.BigEndian.PutUint32(buf[12:], l.bootCount)
	binary.BigEndian.PutUint16(buf[16:], uint16(len(images)))
	if endOfBatch {
		buf[18] = 1
	}
	// buf[19] reserved; crc over the descriptor area fills 20:24.
	for i, im := range images {
		off := hdrFixed + i*descSize
		buf[off] = im.Kind
		binary.BigEndian.PutUint32(buf[off+1:], uint32(im.Target))
		binary.BigEndian.PutUint32(buf[off+5:], crc32.ChecksumIEEE(im.Data))
	}
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[hdrFixed:]))
}

// encodeEnd makes the sector buf the end page of the next record.
func (l *Log) encodeEnd(buf []byte) {
	clear(buf)
	binary.BigEndian.PutUint32(buf[0:], recMagic+1)
	binary.BigEndian.PutUint64(buf[4:], l.recordNum)
	binary.BigEndian.PutUint32(buf[12:], l.bootCount)
}

type header struct {
	recordNum  uint64
	bootCount  uint32
	n          int
	endOfBatch bool
	descs      []PageImage // Data unset; Kind/Target filled, crc in crcs
	crcs       []uint32
}

// decodeHeader decodes a record's header sector; a buffer shorter than a
// sector is refused like a bad magic, count or checksum.
func decodeHeader(buf []byte) (header, bool) {
	if len(buf) < disk.SectorSize || binary.BigEndian.Uint32(buf[0:]) != recMagic {
		return header{}, false
	}
	h := header{
		recordNum:  binary.BigEndian.Uint64(buf[4:]),
		bootCount:  binary.BigEndian.Uint32(buf[12:]),
		n:          int(binary.BigEndian.Uint16(buf[16:])),
		endOfBatch: buf[18] == 1,
	}
	if h.n <= 0 || h.n > MaxImagesPerRecord {
		return header{}, false
	}
	if binary.BigEndian.Uint32(buf[20:]) != crc32.ChecksumIEEE(buf[hdrFixed:]) {
		return header{}, false
	}
	for i := 0; i < h.n; i++ {
		off := hdrFixed + i*descSize
		h.descs = append(h.descs, PageImage{
			Kind:   buf[off],
			Target: uint64(binary.BigEndian.Uint32(buf[off+1:])),
		})
		h.crcs = append(h.crcs, binary.BigEndian.Uint32(buf[off+5:]))
	}
	return h, true
}

func validEnd(buf []byte, rec uint64, boot uint32) bool {
	return binary.BigEndian.Uint32(buf[0:]) == recMagic+1 &&
		binary.BigEndian.Uint64(buf[4:]) == rec &&
		binary.BigEndian.Uint32(buf[12:]) == boot
}
