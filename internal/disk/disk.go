package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Errors returned by disk operations.
var (
	// ErrHalted is returned once the disk has been halted by Halt or by a
	// write fault; it models the device disappearing at a crash.
	ErrHalted = errors.New("disk: halted")
	// ErrOutOfRange is returned for addresses outside the volume.
	ErrOutOfRange = errors.New("disk: sector address out of range")
)

// DamagedError reports an unreadable sector, the failure mode the paper's
// robustness requirements are written against (one or two consecutive
// sectors at a time).
type DamagedError struct{ Addr int }

func (e *DamagedError) Error() string { return fmt.Sprintf("disk: sector %d damaged", e.Addr) }

// LabelError reports a label-verification failure, the Trident hardware's
// way of catching wild writes and stale-address bugs.
type LabelError struct {
	Addr int
	Want Label
	Got  Label
}

func (e *LabelError) Error() string {
	return fmt.Sprintf("disk: label mismatch at sector %d: want %v, got %v", e.Addr, e.Want, e.Got)
}

// Class partitions sector addresses for I/O accounting. The file systems
// register a classifier so that Table 3's "metadata I/Os" can be separated
// from data traffic without threading tags through every call site.
type Class int

// Address classes.
const (
	ClassData Class = iota
	ClassMeta
	numClasses
)

// String names the class for traces and tables.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassMeta:
		return "meta"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Stats accumulates device activity. All counters are cumulative; use
// TakeStats to window a measurement.
type Stats struct {
	Ops            int // total I/O operations issued
	Reads, Writes  int // operations by direction
	SectorsRead    int
	SectorsWritten int
	Seeks          int // arm moves beyond ShortSeekMax
	ShortSeeks     int // arm moves of 1..ShortSeekMax cylinders
	LostRevs       int // rotational waits of >= 0.75 revolution
	// MergeableOps counts operations that began exactly where the previous
	// operation of the same direction ended: back-to-back short requests a
	// clustered transfer could have issued as one. It quantifies the merge
	// opportunities the data path is leaving on the table — the coalescing
	// read/write path exists to drive it toward zero.
	MergeableOps int
	SeekTime     time.Duration
	RotTime      time.Duration
	TransferTime time.Duration
	// StallTime is device time lost to injected hung-I/O latency spikes
	// (firmware recovery pauses), outside the mechanical timing model.
	StallTime  time.Duration
	OpsByClass [numClasses]int
}

// BusyTime returns total device time consumed.
func (s Stats) BusyTime() time.Duration { return s.SeekTime + s.RotTime + s.TransferTime + s.StallTime }

// Sub returns s - o field-wise; useful for windowed measurements.
func (s Stats) Sub(o Stats) Stats {
	s.Ops -= o.Ops
	s.Reads -= o.Reads
	s.Writes -= o.Writes
	s.SectorsRead -= o.SectorsRead
	s.SectorsWritten -= o.SectorsWritten
	s.Seeks -= o.Seeks
	s.ShortSeeks -= o.ShortSeeks
	s.LostRevs -= o.LostRevs
	s.MergeableOps -= o.MergeableOps
	s.SeekTime -= o.SeekTime
	s.RotTime -= o.RotTime
	s.TransferTime -= o.TransferTime
	s.StallTime -= o.StallTime
	for i := range s.OpsByClass {
		s.OpsByClass[i] -= o.OpsByClass[i]
	}
	return s
}

// WriteFault describes an injected partial write, modelling the paper's
// weak-atomic property: a multi-sector write interrupted by a crash persists
// a prefix, and the sector at the break (and possibly the one before it) is
// detectably damaged.
type WriteFault struct {
	Persist       int  // number of leading sectors fully transferred
	DamageAtBreak bool // damage the sector where the write stopped
	DamagePrev    bool // also damage the last persisted sector
	Halt          bool // halt the device after this fault
}

// WriteFaultFunc inspects a write about to be issued and optionally injects
// a fault. addr is the first sector, n the sector count. Returning nil lets
// the write proceed normally.
type WriteFaultFunc func(addr, n int) *WriteFault

// counters is the lock-free accumulator behind Stats. The device mutex
// serializes the operations that bump them, but keeping them atomic lets
// Stats() take a consistent-enough snapshot without blocking behind an
// in-flight transfer — concurrent workers sample I/O accounting freely.
type counters struct {
	ops            atomic.Int64
	reads, writes  atomic.Int64
	sectorsRead    atomic.Int64
	sectorsWritten atomic.Int64
	seeks          atomic.Int64
	shortSeeks     atomic.Int64
	lostRevs       atomic.Int64
	mergeableOps   atomic.Int64
	seekTime       atomic.Int64 // nanoseconds
	rotTime        atomic.Int64
	transferTime   atomic.Int64
	stallTime      atomic.Int64
	opsByClass     [numClasses]atomic.Int64
}

func (c *counters) snapshot() Stats {
	var s Stats
	s.Reads = int(c.reads.Load())
	s.Writes = int(c.writes.Load())
	// ops is bumped before reads/writes on every operation, so loading it
	// *after* them keeps the snapshot's reads+writes <= ops even while
	// operations race the snapshot (the counters only grow).
	s.Ops = int(c.ops.Load())
	s.SectorsRead = int(c.sectorsRead.Load())
	s.SectorsWritten = int(c.sectorsWritten.Load())
	s.Seeks = int(c.seeks.Load())
	s.ShortSeeks = int(c.shortSeeks.Load())
	s.LostRevs = int(c.lostRevs.Load())
	s.MergeableOps = int(c.mergeableOps.Load())
	s.SeekTime = time.Duration(c.seekTime.Load())
	s.RotTime = time.Duration(c.rotTime.Load())
	s.TransferTime = time.Duration(c.transferTime.Load())
	s.StallTime = time.Duration(c.stallTime.Load())
	for i := range s.OpsByClass {
		s.OpsByClass[i] = int(c.opsByClass[i].Load())
	}
	return s
}

func (c *counters) reset() {
	c.ops.Store(0)
	c.reads.Store(0)
	c.writes.Store(0)
	c.sectorsRead.Store(0)
	c.sectorsWritten.Store(0)
	c.seeks.Store(0)
	c.shortSeeks.Store(0)
	c.lostRevs.Store(0)
	c.mergeableOps.Store(0)
	c.seekTime.Store(0)
	c.rotTime.Store(0)
	c.transferTime.Store(0)
	c.stallTime.Store(0)
	for i := range c.opsByClass {
		c.opsByClass[i].Store(0)
	}
}

// Disk is a simulated sector-addressable drive with labels and timing. All
// methods are safe for concurrent use; each operation atomically advances
// the simulation clock by the device time it consumes, and the activity
// counters are atomics so stats can be read without blocking the device.
type Disk struct {
	geom Geometry
	par  Params
	clk  sim.Clock

	mu       sync.Mutex
	data     map[int][]byte
	labels   map[int]Label
	damaged  map[int]bool
	stuck    map[int]bool // damaged sectors a rewrite cannot clear
	remapped map[int]bool // sectors retired to the spare pool
	curCyl   int
	cnt      counters
	fault    WriteFaultFunc
	inj      *faultInjector
	fcnt     faultCounts
	classify func(addr int) Class
	observe  func(OpEvent)
	// damage is the damage observer: injected corruption (CorruptSectors,
	// SmashSector) reports the affected range so a caching layer above can
	// drop frames that no longer reflect the platter.
	damage func(addr, n int)
	// lastEnd/lastWrite/lastValid track the previous operation's extent for
	// the merge-opportunity accounting in beginOp.
	lastEnd   int
	lastWrite bool
	lastValid bool
	// op holds the in-flight operation's description for the observer;
	// valid only between beginOp and endOp, under d.mu.
	op     opFrame
	halted bool
	wb     *writeback // non-nil while the write-back window is enabled
	// cow marks sector payload slices as shared with another disk (a Clone)
	// or with the write-back journal; writes then replace slices instead of
	// mutating them in place.
	cow bool

	spareTotal int
	sparesUsed int
}

// New returns a freshly formatted (all-zero, all-free-labelled) disk.
func New(g Geometry, p Params, clk sim.Clock) (*Disk, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Disk{
		geom:       g,
		par:        p,
		clk:        clk,
		data:       make(map[int][]byte),
		labels:     make(map[int]Label),
		damaged:    make(map[int]bool),
		stuck:      make(map[int]bool),
		remapped:   make(map[int]bool),
		spareTotal: DefaultSpares,
	}, nil
}

// Geometry returns the drive geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// Params returns the drive timing parameters.
func (d *Disk) Params() Params { return d.par }

// Clock returns the simulation clock the drive advances.
func (d *Disk) Clock() sim.Clock { return d.clk }

// SetClassifier registers the address classifier used for per-class I/O
// accounting. Passing nil classifies everything as data.
func (d *Disk) SetClassifier(f func(addr int) Class) {
	d.mu.Lock()
	d.classify = f
	d.mu.Unlock()
}

// OpEvent describes one completed disk operation with its simulated time
// split into the script steps of the timing model: head motion (seek),
// rotational latency, and data/label transfer.
type OpEvent struct {
	Write    bool
	Class    Class
	Addr     int
	Sectors  int
	OK       bool
	Seek     time.Duration
	Rot      time.Duration
	Transfer time.Duration
	// Stall is injected hung-I/O time, outside the mechanical model; the
	// host's per-op deadline uses it to classify a stalled device.
	Stall time.Duration
}

// Elapsed returns the operation's total device time.
func (e OpEvent) Elapsed() time.Duration { return e.Seek + e.Rot + e.Transfer + e.Stall }

// opFrame is the per-operation observer baseline captured by beginOp.
type opFrame struct {
	write                      bool
	class                      Class
	addr, n                    int
	seek, rot, transfer, stall int64
}

// SetOpObserver registers a function called at the end of every disk
// operation (nil removes it). The observer runs while the device mutex is
// held, so it must be fast and must never call back into the Disk.
func (d *Disk) SetOpObserver(fn func(OpEvent)) {
	d.mu.Lock()
	d.observe = fn
	d.mu.Unlock()
}

// SetDamageObserver registers a function called whenever sectors are
// corrupted or smashed from outside the normal write path (nil removes it).
// It runs while the device mutex is held, so it must be fast and must never
// call back into the Disk; the file system uses it to invalidate cached
// copies of sectors whose platter contents were changed behind its back.
func (d *Disk) SetDamageObserver(fn func(addr, n int)) {
	d.mu.Lock()
	d.damage = fn
	d.mu.Unlock()
}

// SetWriteFault installs a fault injector consulted before every write.
func (d *Disk) SetWriteFault(f WriteFaultFunc) {
	d.mu.Lock()
	d.fault = f
	d.mu.Unlock()
}

// Halt stops the device: every subsequent operation fails with ErrHalted.
// In-memory file-system state is lost by discarding the file-system object;
// the platters retain exactly what had been written.
func (d *Disk) Halt() {
	d.mu.Lock()
	d.halted = true
	d.mu.Unlock()
}

// Revive restarts a halted device, modelling the reboot after a crash.
func (d *Disk) Revive() {
	d.mu.Lock()
	d.halted = false
	d.fault = nil
	d.mu.Unlock()
}

// Stats returns a snapshot of the cumulative counters. It never blocks on
// the device mutex, so monitoring can sample mid-transfer; the snapshot is
// consistent at sector granularity.
func (d *Disk) Stats() Stats {
	return d.cnt.snapshot()
}

// ResetStats zeroes the counters and returns the previous snapshot. Call it
// only at a quiet point; resetting while transfers are in flight can lose a
// few counts to the window between snapshot and reset.
func (d *Disk) ResetStats() Stats {
	s := d.cnt.snapshot()
	d.cnt.reset()
	return s
}

// CorruptSectors marks n sectors starting at addr as damaged, as a media
// flaw or failed write would. Reads of a damaged sector fail until it is
// rewritten.
func (d *Disk) CorruptSectors(addr, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n; i++ {
		d.damaged[addr+i] = true
	}
	if d.damage != nil {
		d.damage(addr, n)
	}
}

// SmashSector overwrites a sector's contents (and optionally its label)
// without going through the normal write path, modelling a wild write from
// buggy software. No damage flag is set: the corruption is silent.
func (d *Disk) SmashSector(addr int, data []byte, lab *Label) {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := make([]byte, SectorSize)
	copy(buf, data)
	d.data[addr] = buf
	if lab != nil {
		d.labels[addr] = *lab
	}
	if d.damage != nil {
		d.damage(addr, 1)
	}
}

// PeekLabel returns a sector's label without device timing or verification;
// it is a test and tooling hook, not part of the device interface.
func (d *Disk) PeekLabel(addr int) Label {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.labels[addr]
}

// IsDamaged reports whether a sector is currently unreadable.
func (d *Disk) IsDamaged(addr int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.damaged[addr]
}

// checkRange validates [addr, addr+n).
func (d *Disk) checkRange(addr, n int) error {
	if n <= 0 || addr < 0 || addr+n > d.geom.Sectors() {
		return ErrOutOfRange
	}
	return nil
}

// PositionTime returns the seek plus rotational wait a request starting at
// addr would pay if it were issued now: the positioning steps of the timing
// model, without the transfer. It is a query — it advances no clock, moves
// no arm and counts nothing — for a caller choosing which of several
// requests to issue next.
func (d *Disk) PositionTime(addr int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.par.SeekTime(d.geom.Cylinder(addr) - d.curCyl)
	return st + d.par.RotWait(d.clk.Now()+st, d.par.SlotAngle(d.geom, addr))
}

// ArrivalAngle returns the platter's angle, as time into the revolution, at
// the moment a head sent to cylinder cyl now would end its seek there. It is
// PositionTime split at the seek, for a caller choosing among several
// requests on one cylinder: they all pay that seek, so the one the head
// reaches soonest has the least RotWait from this angle to its SlotAngle, and
// one query serves every candidate. Like PositionTime it moves nothing.
func (d *Disk) ArrivalAngle(cyl int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return (d.clk.Now() + d.par.SeekTime(cyl-d.curCyl)) % d.par.Revolution()
}

// motion charges seek and rotational time to position the head at addr.
// It must be called with d.mu held.
func (d *Disk) motion(addr int) {
	cyl := d.geom.Cylinder(addr)
	dist := cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	if dist != 0 {
		st := d.par.SeekTime(dist)
		d.cnt.seekTime.Add(int64(st))
		if dist <= d.par.ShortSeekMax {
			d.cnt.shortSeeks.Add(1)
		} else {
			d.cnt.seeks.Add(1)
		}
		d.clk.Advance(st)
		d.curCyl = cyl
	}
	d.realign(addr)
}

// transferOne charges the transfer time of one sector and advances the arm
// across cylinder boundaries. Must be called with d.mu held, immediately
// after motion() for the first sector.
func (d *Disk) transferOne(addr int) {
	if d.remapped[addr] {
		// A remapped sector is served from a spare track: the drive slips
		// a revolution getting there and back.
		rev := d.par.Revolution()
		d.cnt.rotTime.Add(int64(rev))
		d.cnt.lostRevs.Add(1)
		d.clk.Advance(rev)
	}
	cyl := d.geom.Cylinder(addr)
	if cyl != d.curCyl {
		// Crossing a cylinder boundary mid-transfer: settle, then
		// realign rotationally for the target sector.
		st := d.par.SeekTime(1)
		d.cnt.seekTime.Add(int64(st))
		d.cnt.shortSeeks.Add(1)
		d.clk.Advance(st)
		d.curCyl = cyl
		d.realign(addr)
	}
	secT := d.par.SectorTime(d.geom)
	d.cnt.transferTime.Add(int64(secT))
	d.clk.Advance(secT)
}

// realign waits for the rotational slot of addr. Must hold d.mu.
func (d *Disk) realign(addr int) {
	if wait := d.par.RotWait(d.clk.Now(), d.par.SlotAngle(d.geom, addr)); wait > 0 {
		d.cnt.rotTime.Add(int64(wait))
		if wait >= d.par.Revolution()*3/4 {
			d.cnt.lostRevs.Add(1)
		}
		d.clk.Advance(wait)
	}
}

// beginOp performs common bookkeeping. Must hold d.mu.
func (d *Disk) beginOp(addr, n int, write bool) error {
	if d.halted {
		return ErrHalted
	}
	if err := d.checkRange(addr, n); err != nil {
		return err
	}
	d.cnt.ops.Add(1)
	if write {
		d.cnt.writes.Add(1)
	} else {
		d.cnt.reads.Add(1)
	}
	if d.lastValid && addr == d.lastEnd && write == d.lastWrite {
		d.cnt.mergeableOps.Add(1)
	}
	d.lastEnd = addr + n
	d.lastWrite = write
	d.lastValid = true
	cls := ClassData
	if d.classify != nil {
		cls = d.classify(addr)
	}
	d.cnt.opsByClass[cls].Add(1)
	if d.observe != nil {
		d.op = opFrame{
			write: write, class: cls, addr: addr, n: n,
			seek:     d.cnt.seekTime.Load(),
			rot:      d.cnt.rotTime.Load(),
			transfer: d.cnt.transferTime.Load(),
			stall:    d.cnt.stallTime.Load(),
		}
	}
	return nil
}

// endOp fires the op observer with the operation's time breakdown, computed
// as the delta of the timing counters since beginOp. Deferred after a
// successful beginOp; runs before d.mu is released (defer is LIFO), so the
// frame and counters are still this operation's.
func (d *Disk) endOp(errp *error) {
	if d.observe == nil {
		return
	}
	d.observe(OpEvent{
		Write:    d.op.write,
		Class:    d.op.class,
		Addr:     d.op.addr,
		Sectors:  d.op.n,
		OK:       *errp == nil,
		Seek:     time.Duration(d.cnt.seekTime.Load() - d.op.seek),
		Rot:      time.Duration(d.cnt.rotTime.Load() - d.op.rot),
		Transfer: time.Duration(d.cnt.transferTime.Load() - d.op.transfer),
		Stall:    time.Duration(d.cnt.stallTime.Load() - d.op.stall),
	})
}

// countSectors returns how many sectors the buffers of a scatter or gather
// list hold between them; each must hold whole sectors.
func countSectors(bufs [][]byte) (int, error) {
	n := 0
	for _, b := range bufs {
		if len(b)%SectorSize != 0 {
			return 0, fmt.Errorf("disk: transfer buffer of %d bytes, not whole sectors", len(b))
		}
		n += len(b) / SectorSize
	}
	return n, nil
}

// readSector copies the stored contents of addr into buf. Must hold d.mu.
func (d *Disk) readSector(addr int, buf []byte) error {
	if d.wb != nil {
		// The drive cache serves the newest buffered content, bypassing
		// platter damage and the read-fault model.
		if ov, ok := d.wb.overlay[addr]; ok && ov.data != nil {
			copy(buf, ov.data)
			return nil
		}
	}
	if d.damaged[addr] {
		return &DamagedError{Addr: addr}
	}
	if d.inj != nil {
		if err := d.injectRead(addr); err != nil {
			return err
		}
	}
	if s, ok := d.data[addr]; ok {
		copy(buf, s)
	} else {
		for i := range buf[:SectorSize] {
			buf[i] = 0
		}
	}
	return nil
}

// writeSector stores buf as the contents of addr, clearing damage — unless
// the sector is a stuck physical defect, in which case the write appears to
// succeed but the sector stays unreadable (the readback after bounded
// retries is what pushes the repair path to Remap). Must hold d.mu.
func (d *Disk) writeSector(addr int, buf []byte) {
	s, ok := d.data[addr]
	if !ok || d.cow {
		s = make([]byte, SectorSize)
		d.data[addr] = s
	}
	copy(s, buf)
	if !d.stuck[addr] {
		delete(d.damaged, addr)
	}
}

// ReadSectorsInto reads consecutive sectors starting at addr into dst — one
// or more caller-owned buffers of whole sectors, filled in order — as one
// operation (one I/O), however many buffers share it: a caller that wants
// the middle of a transfer in one place and its edges in another still pays
// for a single request. Label fields are ignored — this is the path a
// label-free (FSD-style) system uses. On an error dst is partly overwritten.
func (d *Disk) ReadSectorsInto(addr int, dst ...[]byte) error {
	return d.readCommon(addr, dst, 0)
}

// readCommon is the shared full-operation read path: the sectors of the
// scatter list dst after its first skip (a retry resuming at the sector an
// interrupted read failed on) come from addr on.
func (d *Disk) readCommon(addr int, dst [][]byte, skip int) (err error) {
	n, err := countSectors(dst)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err = d.beginOp(addr, n-skip, false); err != nil {
		return err
	}
	defer d.endOp(&err)
	d.motion(addr)
	for _, b := range dst {
		if k := min(skip, len(b)/SectorSize); k > 0 {
			b, skip = b[k*SectorSize:], skip-k
		}
		for ; len(b) > 0; b, addr = b[SectorSize:], addr+1 {
			d.transferOne(addr)
			d.cnt.sectorsRead.Add(1)
			if err := d.readSector(addr, b[:SectorSize]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadSectors is ReadSectorsInto a new buffer of n sectors.
func (d *Disk) ReadSectors(addr, n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrOutOfRange
	}
	buf := make([]byte, n*SectorSize)
	if err := d.ReadSectorsInto(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteSectorsFrom writes consecutive sectors starting at addr from src — one
// or more caller-owned buffers of whole sectors, taken in order — as one
// operation (one I/O), however many buffers share it: the twin of
// ReadSectorsInto, for a caller whose leader page, payload and zero-padded
// tail live in three places. The platter (and the write-back journal) copies
// what it is given, so src is the caller's again on return. Labels are left
// untouched. If a write fault is injected the prefix persists per the
// weak-atomic property and the error is ErrHalted.
func (d *Disk) WriteSectorsFrom(addr int, src ...[]byte) error {
	return d.writeCommon(addr, src, 0, nil)
}

// WriteSectors is WriteSectorsFrom one buffer.
func (d *Disk) WriteSectors(addr int, data []byte) error {
	return d.WriteSectorsFrom(addr, data)
}

// VerifyRead reads n=len(want) sectors, checking each sector's label before
// its data transfers, as the Trident microcode did. The first mismatch or
// damaged sector aborts the operation.
func (d *Disk) VerifyRead(addr int, want []Label) (_ []byte, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(want)
	if err = d.beginOp(addr, n, false); err != nil {
		return nil, err
	}
	defer d.endOp(&err)
	d.motion(addr)
	buf := make([]byte, n*SectorSize)
	for i := 0; i < n; i++ {
		d.transferOne(addr + i)
		d.cnt.sectorsRead.Add(1)
		if d.sectorDamaged(addr + i) {
			return nil, &DamagedError{Addr: addr + i}
		}
		if got := d.labelAt(addr + i); !got.Equal(want[i]) {
			return nil, &LabelError{Addr: addr + i, Want: want[i], Got: got}
		}
		if err := d.readSector(addr+i, buf[i*SectorSize:(i+1)*SectorSize]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadLabels reads the labels of n consecutive sectors in one operation.
// This is the scavenger's workhorse: label transfer costs the same
// rotational time as data transfer but no data is copied.
func (d *Disk) ReadLabels(addr, n int) (_ []Label, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err = d.beginOp(addr, n, false); err != nil {
		return nil, err
	}
	defer d.endOp(&err)
	d.motion(addr)
	labs := make([]Label, n)
	for i := 0; i < n; i++ {
		d.transferOne(addr + i)
		d.cnt.sectorsRead.Add(1)
		if d.sectorDamaged(addr + i) {
			return labs[:i], &DamagedError{Addr: addr + i}
		}
		labs[i] = d.labelAt(addr + i)
	}
	return labs, nil
}

// VerifyWrite checks each sector's current label and then overwrites the
// sector's data, leaving the label unchanged. Because verification reads
// the label on one pass and the data is written on the next pass of the
// platter, the operation inherently costs a revolution per verified run;
// the simulator charges that by realigning after the verification pass.
func (d *Disk) VerifyWrite(addr int, want []Label, data []byte) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(want)
	if err = d.beginOp(addr, n, true); err != nil {
		return err
	}
	defer d.endOp(&err)
	if len(data) != n*SectorSize {
		return fmt.Errorf("disk: VerifyWrite data length %d != %d sectors", len(data), n)
	}
	d.motion(addr)
	// Verification pass: labels stream under the head.
	for i := 0; i < n; i++ {
		d.transferOne(addr + i)
		if d.sectorDamaged(addr + i) {
			return &DamagedError{Addr: addr + i}
		}
		if got := d.labelAt(addr + i); !got.Equal(want[i]) {
			return &LabelError{Addr: addr + i, Want: want[i], Got: got}
		}
	}
	// Write pass: wait for the first sector to come around again.
	d.realign(addr)
	return d.writeLocked(addr, n, [][]byte{data}, 0, nil)
}

// WriteLabels rewrites only the labels of n consecutive sectors (claiming
// or freeing pages in CFS). Data is untouched.
func (d *Disk) WriteLabels(addr int, labs []Label) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(labs)
	if err = d.beginOp(addr, n, true); err != nil {
		return err
	}
	defer d.endOp(&err)
	d.motion(addr)
	if d.wb != nil {
		for i := 0; i < n; i++ {
			d.transferOne(addr + i)
			d.cnt.sectorsWritten.Add(1)
		}
		d.journalWrite(addr, 0, nil, 0, labs)
		return nil
	}
	d.injectHang()
	fault := d.takeFault(addr, n)
	for i := 0; i < n; i++ {
		d.transferOne(addr + i)
		if fault != nil && i >= fault.Persist {
			return d.applyFault(addr, fault)
		}
		if d.inj != nil {
			if err := d.injectWrite(addr + i); err != nil {
				return err
			}
		}
		d.cnt.sectorsWritten.Add(1)
		d.labels[addr+i] = labs[i]
		if !d.stuck[addr+i] {
			delete(d.damaged, addr+i)
		}
	}
	return nil
}

// WriteLabelsData writes labels and data together for n consecutive sectors
// in one operation, as the Trident controller could.
func (d *Disk) WriteLabelsData(addr int, labs []Label, data []byte) error {
	if len(data) != len(labs)*SectorSize {
		return fmt.Errorf("disk: WriteLabelsData data length %d != %d sectors", len(data), len(labs))
	}
	return d.writeCommon(addr, [][]byte{data}, 0, labs)
}

// writeCommon is the shared full-operation write path: the sectors of the
// gather list src after its first skip (a retry resuming behind the prefix
// an interrupted write persisted) go to addr on.
func (d *Disk) writeCommon(addr int, src [][]byte, skip int, labs []Label) (err error) {
	n, err := countSectors(src)
	if err != nil {
		return err
	}
	n -= skip
	d.mu.Lock()
	defer d.mu.Unlock()
	if err = d.beginOp(addr, n, true); err != nil {
		return err
	}
	defer d.endOp(&err)
	d.motion(addr)
	return d.writeLocked(addr, n, src, skip, labs)
}

// writeLocked transfers a write of n sectors — those of src after its first
// skip — already positioned at addr. Must hold d.mu.
func (d *Disk) writeLocked(addr, n int, src [][]byte, skip int, labs []Label) error {
	if d.wb != nil {
		// Buffered writes land in the drive cache; the write-fault model,
		// like the read-side one, applies only to platter transfers.
		for i := 0; i < n; i++ {
			d.transferOne(addr + i)
			d.cnt.sectorsWritten.Add(1)
		}
		d.journalWrite(addr, n, src, skip, labs)
		return nil
	}
	d.injectHang()
	fault := d.takeFault(addr, n)
	i := -skip
	for _, b := range src {
		for ; len(b) > 0; b, i = b[SectorSize:], i+1 {
			if i < 0 {
				continue
			}
			d.transferOne(addr + i)
			if fault != nil && i >= fault.Persist {
				return d.applyFault(addr, fault)
			}
			if d.inj != nil {
				if err := d.injectWrite(addr + i); err != nil {
					return err
				}
			}
			d.cnt.sectorsWritten.Add(1)
			d.writeSector(addr+i, b[:SectorSize])
			if labs != nil {
				d.labels[addr+i] = labs[i]
			}
		}
	}
	return nil
}

// takeFault consults the injector. Must hold d.mu.
func (d *Disk) takeFault(addr, n int) *WriteFault {
	if d.fault == nil {
		return nil
	}
	return d.fault(addr, n)
}

// applyFault damages sectors per the fault description and halts if asked.
// Must hold d.mu.
func (d *Disk) applyFault(addr int, f *WriteFault) error {
	breakAt := addr + f.Persist
	if f.DamageAtBreak && breakAt < d.geom.Sectors() {
		d.damaged[breakAt] = true
	}
	if f.DamagePrev && f.Persist > 0 {
		d.damaged[breakAt-1] = true
	}
	if f.Halt {
		d.halted = true
	}
	return ErrHalted
}

// FailAfterWrites returns a WriteFaultFunc that lets countdown whole write
// operations through, then interrupts the next one after persistSectors
// sectors, damaging the sector at the break point and halting the device.
// It reproduces "a partial write of the file name table could produce an
// inconsistent page".
func FailAfterWrites(countdown, persistSectors int) WriteFaultFunc {
	remaining := countdown
	return func(addr, n int) *WriteFault {
		if remaining > 0 {
			remaining--
			return nil
		}
		p := persistSectors
		if p >= n {
			p = n - 1
			if p < 0 {
				p = 0
			}
		}
		return &WriteFault{Persist: p, DamageAtBreak: true, Halt: true}
	}
}
