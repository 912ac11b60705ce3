package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/disk"
	"repro/internal/vam"
	"repro/internal/wal"
)

// NTPageSectors is the number of disk sectors per name-table page. The
// paper's name table pages "spanned multiple disk pages"; FSD uses 2 KB
// B-tree pages over 512-byte sectors.
const NTPageSectors = 4

// NTPageSize is the name-table page size in bytes.
const NTPageSize = NTPageSectors * disk.SectorSize

// Config parameterizes a volume. The zero value selects the paper's design
// point everywhere.
type Config struct {
	// GroupCommitInterval is the log force deadline. Zero means the
	// paper's half second; negative disables group commit, so every
	// metadata update forces the log immediately (the ablation baseline,
	// under which AdaptiveCommit has nothing to adapt). With AdaptiveCommit
	// it is the ceiling the adaptive controller works under rather than a
	// fixed period.
	GroupCommitInterval time.Duration
	// AdaptiveCommit replaces the fixed force deadline with the WAL's
	// load-aware controller: the deadline tracks the observed staging
	// rate and force latency between 5 ms and the GroupCommitInterval
	// ceiling. See wal.Config.Adaptive.
	AdaptiveCommit bool
	// AsyncApply enables the asynchronous metadata pipeline: mutations
	// validate under the shared monitor, enqueue a typed intent into the
	// per-volume ordered queue (internal/intentq), and return; a
	// background applier performs the B-tree updates and WAL staging.
	// WaitCommitted remains the only durability promise. See DESIGN.md
	// §13. The queue holds at most 512 unapplied intents; mutations block
	// (backpressure) at the cap.
	AsyncApply bool
	// LogSectors is the size of the log region including its anchor
	// pages. Zero means 2404 sectors (three 800-sector thirds, ~1.2 MB).
	LogSectors int
	// Thirds is the number of log divisions (the paper uses 3). Like
	// LogSectors it is fixed at Format, which records it in the log's anchor;
	// a mount takes the count from there.
	Thirds int
	// NTPages is the name-table capacity in 2 KB pages per copy. Zero
	// means 2048 (4 MB per copy, roughly 20k files).
	NTPages int
	// SingleCopyNT stores the name table once instead of twice (twice is
	// the paper's design). Set only for the ablation benchmark. Fixed at
	// Format: the layout records the copies, and a mount follows it.
	SingleCopyNT bool
	// SmallThreshold is the small-file cutoff in pages for the split
	// allocator. Zero means 8 pages (4,000 bytes, the paper's statistic).
	SmallThreshold int
	// CacheSize is the name-table page cache capacity. Zero means 512
	// pages (1 MB).
	CacheSize int
	// CentrePlacement puts the log and name table at the centre
	// cylinders (the paper's choice). EdgePlacement is the ablation.
	EdgePlacement bool
	// LogVAM enables the extension the paper considered but rejected
	// (Section 5.3): allocation-map changes are logged alongside the
	// name-table images, cutting worst-case crash recovery "from about
	// twenty five seconds to about two seconds" by skipping the
	// name-table scan.
	LogVAM bool
	// MountWorkers sets the width of the pool that checks and decodes the
	// name table behind the arm in the mount-time scan: checksums, copy
	// compares and the leaf decode of each chunk run while the transfers
	// after it are in flight, so the scan costs the larger of its device time
	// and this pool's share. 0 or 1 means one worker (it still runs beside
	// the arm); larger values divide the CPU across that many. The scan's
	// disk reads and the write-back of replayed images are one sequential
	// sweep at any width, and what the mount rebuilds is identical.
	MountWorkers int
	// DataCachePages is the file-data buffer cache capacity in 512-byte
	// sectors. Zero means 2048 (1 MB); negative disables the data cache,
	// restoring the raw per-run read/write path the paper's FSD used (and
	// the paper-reproduction benches measure). See internal/bufcache.
	DataCachePages int
	// ReadAhead caps the sectors fetched beyond a sequential miss: when a
	// handle's read starts where its last one ended (or is a fresh handle's
	// full-transfer read of the start of the file) and misses the data
	// cache, the request goes on through the physically contiguous stretch
	// by up to this many extra sectors, into the cache. Zero means the
	// stream window (128 sectors, less in a data cache under 2048); a
	// positive value gets no more than that; negative disables read-ahead
	// while keeping the cache.
	ReadAhead int
	// ReadRetries bounds the in-place retries after a damaged-sector read
	// error before the error surfaces (transient faults clear on retry;
	// latent errors do not and fall through to copy repair). Zero means 2;
	// negative disables retrying.
	ReadRetries int
	// WriteRetries bounds the in-place retries after a failed sector write
	// before the volume escalates. Independently of the budget, a sector
	// that stays damaged after a failed write is remapped to a spare and
	// the write repeated (the automatic counterpart of scrub's manual
	// retirement). Applies to every metadata, WAL, and data write site.
	// Zero means 2; negative disables retrying.
	WriteRetries int
	// ErrorBudget is the write-fault escalation budget of the health FSM:
	// retries, remaps, and hung ops accumulate weighted points, and at
	// ErrorBudget points the volume leaves Healthy for Degraded (scrub is
	// scheduled aggressively); at four times the budget — or on any write
	// that fails outright after retries and remapping — it drops to
	// ReadOnly, where mutations return ErrReadOnly but reads keep serving.
	// Zero means 64; negative disables automatic health transitions.
	ErrorBudget int
	// ScrubWorkers sets the width of the pool that checks the leaders
	// Scrub's one driver has read. 0 or 1 checks them sequentially.
	ScrubWorkers int
	// ScrubInterval has no effect: a volume scrubs on an explicit Scrub
	// call or the health FSM's scheduled pass.
	//
	// Deprecated: no effect.
	ScrubInterval time.Duration
	// CheckWorkers sets the worker-pool width of the check-and-repair
	// scans: Verify's entry walk and leader cross-check, and the decode
	// of Salvage's whole-disk sweep. 0 or 1 runs them sequentially. The
	// result of every scan is identical at any width — parallelism
	// changes only elapsed time.
	CheckWorkers int
}

func (c Config) mountWorkers() int {
	if c.MountWorkers <= 1 {
		return 1
	}
	return c.MountWorkers
}

// interval is the log's force deadline; 0 forces at every update.
func (c Config) interval() time.Duration {
	switch {
	case c.GroupCommitInterval < 0:
		return 0
	case c.GroupCommitInterval == 0:
		return 500 * time.Millisecond
	}
	return c.GroupCommitInterval
}

// commitFloor is the shortest deadline the adaptive commit controller may
// pick.
const commitFloor = 5 * time.Millisecond

// opTimeout is the per-operation I/O deadline: a disk operation that
// consumes more simulated time than this (a hung-I/O latency spike) is
// classified as a fault and charged to the health error budget, rather than
// silently stalling the commit pipeline. The operation itself still
// completes — the simulated device always returns — so nothing blocks past
// the deadline; the classification is what drives the health FSM.
const opTimeout = time.Second

// walConfig translates the volume config into the log's.
func (c Config) walConfig() wal.Config {
	return wal.Config{
		Interval:     c.interval(),
		Thirds:       c.Thirds,
		Adaptive:     c.AdaptiveCommit,
		Floor:        commitFloor,
		WriteRetries: c.WriteRetries,
		ReadRetries:  c.ReadRetries,
	}
}

func (c Config) logSectors() int {
	if c.LogSectors == 0 {
		return 4 + 3*800
	}
	return c.LogSectors
}

func (c Config) ntPages() int {
	if c.NTPages == 0 {
		return 2048
	}
	return c.NTPages
}

func (c Config) smallThreshold() int {
	if c.SmallThreshold == 0 {
		return 8
	}
	return c.SmallThreshold
}

func (c Config) cacheSize() int {
	if c.CacheSize == 0 {
		return 512
	}
	return c.CacheSize
}

func (c Config) dataCachePages() int {
	if c.DataCachePages < 0 {
		return 0
	}
	if c.DataCachePages == 0 {
		return 2048
	}
	return c.DataCachePages
}

func (c Config) readAhead() int {
	if c.ReadAhead < 0 {
		return 0
	}
	ra := streamWindow
	if c.ReadAhead > 0 {
		ra = min(ra, c.ReadAhead)
	}
	// A window must survive in the probation half of the cache until its
	// reader arrives, beside other readers' windows: in a cache whose half
	// is too small to hold eight it shrinks.
	return min(ra, c.dataCachePages()/2/8)
}

func (c Config) readRetries() int {
	if c.ReadRetries < 0 {
		return 0
	}
	if c.ReadRetries == 0 {
		return 2
	}
	return c.ReadRetries
}

func (c Config) writeRetries() int {
	if c.WriteRetries < 0 {
		return 0
	}
	if c.WriteRetries == 0 {
		return 2
	}
	return c.WriteRetries
}

func (c Config) errorBudget() int {
	if c.ErrorBudget < 0 {
		return 0
	}
	if c.ErrorBudget == 0 {
		return 64
	}
	return c.ErrorBudget
}

func (c Config) scrubWorkers() int {
	if c.ScrubWorkers <= 1 {
		return 1
	}
	return c.ScrubWorkers
}

func (c Config) checkWorkers() int {
	if c.CheckWorkers <= 1 {
		return 1
	}
	return c.CheckWorkers
}

// layout describes where everything lives on the volume. The boot pages sit
// at the front; the log, then name-table copy A, then — a rotational skew of
// a few sectors further on (copyBSkew) — copy B sit near the centre
// cylinders ("the file name table is preallocated to sectors near the
// central cylinder... this reduces disk head motion"); the VAM save area
// follows them; the rest is data. Small files fill the area below the
// metadata downward from it, first fit from the top, so a small create and
// the log force and name-table write it alternates with stay a few cylinders
// apart; big files grow down from the top of the disk toward the metadata.
// Under EdgePlacement the metadata sits at the front and the small area
// fills upward from just behind it.
type layout struct {
	rootA, rootB int // volume root page and its replica
	logBase      int
	logSize      int
	ntA, ntB     int // first sector of each name-table copy
	ntPages      int
	vamBase      int
	vamSectors   int
	dataLo       int
	dataHi       int
	boundary     int // small/big split point for the allocator
	total        int
}

// computeLayout places everything on a drive of geometry g and timing p. It
// is a pure function of its arguments: Format records the result in the root
// page, and Salvage recomputes it only when both root replicas are lost.
func computeLayout(g disk.Geometry, p disk.Params, cfg Config) (layout, error) {
	var l layout
	l.total = g.Sectors()
	l.rootA, l.rootB = 0, 2
	l.logSize = cfg.logSectors()
	l.ntPages = cfg.ntPages()
	ntSectors := l.ntPages * NTPageSectors
	copies, skew := 2, copyBSkew(g, p, ntSectors)
	if cfg.SingleCopyNT {
		copies, skew = 1, 0
	}
	l.vamSectors = vam.SaveSectors(l.total)
	metaSectors := l.logSize + copies*ntSectors + skew + l.vamSectors

	start := l.total / 2 // centre cylinders
	if cfg.EdgePlacement {
		start = 4 // right after the boot pages
	}
	if start+metaSectors > l.total {
		start = l.total - metaSectors
	}
	if start < 4 {
		return l, fmt.Errorf("core: volume of %d sectors too small for metadata (%d sectors)", l.total, metaSectors)
	}
	l.logBase = start
	l.ntA = l.logBase + l.logSize
	l.ntB = l.ntA
	if !cfg.SingleCopyNT {
		l.ntB += ntSectors + skew
	}
	l.vamBase = l.ntB + ntSectors
	metaEnd := l.vamBase + l.vamSectors

	l.dataLo = 4
	l.dataHi = l.total
	if cfg.EdgePlacement {
		l.dataLo = metaEnd
		l.boundary = l.dataLo + (l.dataHi-l.dataLo)/2
	} else {
		// Data surrounds the central metadata; the allocator boundary
		// sits at the metadata start so small files fill the low half,
		// from the centre down, and big files the high half.
		l.boundary = l.logBase
	}
	if l.dataHi-l.dataLo <= metaSectors {
		return l, errors.New("core: no data space left")
	}
	return l, nil
}

// copyBSkew is how many sectors past the end of copy A copy B starts. A
// name-table miss reads a page's copy A and then at once its copy B, which
// lies ntSectors+skew further on: the skew is the smallest gap at which copy
// B's first sector of the page comes under the head just as the seek from
// copy A ends — after the page's transfer and the longest seek that can
// separate one page's two copies, the head waits less than a sector. With
// no skew the wait is whatever ntSectors mod SectorsPerTrack leaves, most of
// a revolution on an unlucky table size. It is the rotational half of the
// locality the paper's timing scripts assume ("rotational and radial").
func copyBSkew(g disk.Geometry, p disk.Params, ntSectors int) int {
	secT, rev := p.SectorTime(g), p.Revolution()
	cylSectors := g.SectorsPerTrack * g.TracksPerCylinder
	for skew := 0; skew < g.SectorsPerTrack; skew++ {
		off := ntSectors + skew
		seek := p.SeekTime((off + cylSectors - 1) / cylSectors)
		arrive := NTPageSectors*secT + seek
		wait := (time.Duration(off%g.SectorsPerTrack)*secT - arrive) % rev
		if wait < 0 {
			wait += rev
		}
		if wait < secT {
			return skew
		}
	}
	return 0
}

// smallFromBoundary reports whether the metadata sits at the allocator
// boundary, on top of the small-file area, so that small files fill that
// area from its top (the centre layout) rather than from dataLo.
func (l layout) smallFromBoundary() bool { return l.boundary == l.logBase }

// smallOrigin is the page where the small-file area's first fit starts: the
// page below the metadata on the centre layout, dataLo under EdgePlacement.
func (l layout) smallOrigin() int {
	if l.smallFromBoundary() {
		return l.boundary - 1
	}
	return l.dataLo
}

// emptyVAM is the allocation map of the layout with no files on it: the data
// region free, the metadata (log, name-table copies, VAM save area)
// allocated. Format starts from it; every rebuild marks the name table's runs
// over it.
func (l layout) emptyVAM() *vam.VAM {
	vm := vam.New(l.total)
	vm.MarkFree(l.dataLo, l.total-l.dataLo)
	if metaHi := l.vamBase + l.vamSectors; metaHi > l.logBase {
		vm.MarkAllocated(l.logBase, metaHi-l.logBase)
	}
	return vm
}

// metaRange reports whether addr falls in any metadata region (for the I/O
// classifier).
func (l layout) metaRange(addr int) bool {
	if addr < 4 {
		return true
	}
	if addr >= l.logBase && addr < l.vamBase+l.vamSectors {
		return true
	}
	return false
}

// region sorts addr into the log, either name-table copy, the VAM save area
// and boot pages, or file data.
func (l layout) region(addr int) int {
	switch {
	case addr < 4 || addr >= l.vamBase && addr < l.vamBase+l.vamSectors:
		return regionVAMRoot
	case addr < l.logBase || addr >= l.vamBase:
		return regionData
	case addr < l.ntA:
		return regionLog
	case addr < l.ntA+l.ntPages*NTPageSectors:
		return regionNTA
	default:
		return regionNTB
	}
}

// ntPageAddrs returns the home sector addresses of both copies of name-table
// page id (copies are equal when the volume runs single-copy).
func (l layout) ntPageAddrs(id uint32) (a, b int) {
	a = l.ntA + int(id)*NTPageSectors
	b = l.ntB + int(id)*NTPageSectors
	return a, b
}

// Volume root page: the replicated boot-time page holding the layout and
// the clean-shutdown flag.
const rootMagic = 0xF5D0CEDA

type rootPage struct {
	layout    layout
	clean     bool
	logVAM    bool   // volume operates with VAM logging (see vamlog.go)
	uidChunk  uint64 // high-order UID allocation chunk
	formatted time.Duration
}

func encodeRoot(r rootPage) []byte {
	buf := make([]byte, disk.SectorSize)
	be := binary.BigEndian
	be.PutUint32(buf[0:], rootMagic)
	be.PutUint32(buf[4:], uint32(r.layout.logBase))
	be.PutUint32(buf[8:], uint32(r.layout.logSize))
	be.PutUint32(buf[12:], uint32(r.layout.ntA))
	be.PutUint32(buf[16:], uint32(r.layout.ntB))
	be.PutUint32(buf[20:], uint32(r.layout.ntPages))
	be.PutUint32(buf[24:], uint32(r.layout.vamBase))
	be.PutUint32(buf[28:], uint32(r.layout.vamSectors))
	be.PutUint32(buf[32:], uint32(r.layout.dataLo))
	be.PutUint32(buf[36:], uint32(r.layout.dataHi))
	be.PutUint32(buf[40:], uint32(r.layout.boundary))
	be.PutUint32(buf[44:], uint32(r.layout.total))
	if r.clean {
		buf[48] = 1
	}
	be.PutUint64(buf[49:], r.uidChunk)
	be.PutUint64(buf[57:], uint64(r.formatted))
	if r.logVAM {
		buf[65] = 1
	}
	be.PutUint32(buf[censorOff:], crc32.ChecksumIEEE(buf[:censorOff]))
	return buf
}

const censorOff = 66 // offset of the root-page checksum

func decodeRoot(buf []byte) (rootPage, bool) {
	be := binary.BigEndian
	if be.Uint32(buf[0:]) != rootMagic {
		return rootPage{}, false
	}
	if be.Uint32(buf[censorOff:]) != crc32.ChecksumIEEE(buf[:censorOff]) {
		return rootPage{}, false
	}
	var r rootPage
	r.layout.rootA, r.layout.rootB = 0, 2
	r.layout.logBase = int(be.Uint32(buf[4:]))
	r.layout.logSize = int(be.Uint32(buf[8:]))
	r.layout.ntA = int(be.Uint32(buf[12:]))
	r.layout.ntB = int(be.Uint32(buf[16:]))
	r.layout.ntPages = int(be.Uint32(buf[20:]))
	r.layout.vamBase = int(be.Uint32(buf[24:]))
	r.layout.vamSectors = int(be.Uint32(buf[28:]))
	r.layout.dataLo = int(be.Uint32(buf[32:]))
	r.layout.dataHi = int(be.Uint32(buf[36:]))
	r.layout.boundary = int(be.Uint32(buf[40:]))
	r.layout.total = int(be.Uint32(buf[44:]))
	r.clean = buf[48] == 1
	r.uidChunk = be.Uint64(buf[49:])
	r.formatted = time.Duration(be.Uint64(buf[57:]))
	r.logVAM = buf[65] == 1
	return r, true
}
