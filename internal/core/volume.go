package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/bufcache"
	"repro/internal/disk"
	"repro/internal/intentq"
	"repro/internal/obs"
	"repro/internal/parscan"
	"repro/internal/sim"
	"repro/internal/vam"
	"repro/internal/wal"
)

const csumCost = sim.CostChecksumPage

// Errors returned by volume operations.
var (
	ErrNotFound  = errors.New("core: file not found")
	ErrExists    = errors.New("core: file version already exists")
	ErrClosed    = errors.New("core: volume is shut down")
	ErrRootLost  = errors.New("core: both volume root pages unreadable")
	ErrIsSymlink = errors.New("core: entry is a symbolic link")
	ErrReadOnly  = errors.New("core: volume mounted read-only")
	// ErrVolumeFormat reports a volume whose root records a name-table
	// entry format this build does not read: one formatted with the
	// fixed-width values that preceded the varint ones. Mount refuses it,
	// with any option, before it writes anything; Salvage refuses it too.
	ErrVolumeFormat = errors.New("core: volume formatted with fixed-width name-table entries; reformat it")
)

// MountStats reports what mounting had to do.
type MountStats struct {
	CleanShutdown bool
	// ReadOnly marks a degraded read-only mount: nothing was written, and
	// after a crash the log was replayed in memory (or skipped, see
	// LogUnavailable).
	ReadOnly bool
	// LogUnavailable is set by a read-only mount when the log could not be
	// opened or replayed; the volume serves the last flushed home state.
	LogUnavailable   bool
	LogRecords       int
	LogImagesApplied int
	LogRepaired      int
	// LogTornRecords / LogTailDiscarded / LogGapBreaks surface the
	// recovery counters: records torn mid-write by the crash, images of an
	// incomplete force discarded for batch atomicity, and replay stops at
	// a missing record (the crash tail, or a write lost to reordering).
	LogTornRecords   int
	LogTailDiscarded int
	LogGapBreaks     int
	// LogSectorsRead is how many log sectors the replay asked the device for.
	LogSectorsRead   int
	VAMReconstructed bool
	// VAMElapsed is the scan's own cost: what scanning the name table to
	// rebuild the allocation map (the paper's ~20 s on a Dorado) added to
	// Elapsed. On a crash mount the scan's window also holds the replay and
	// redo, which run after the sweep's first transfers (DESIGN §8); their
	// time is taken out of it again less ReplayHidden, the part of it the
	// scan's pool was busy through anyway. So Elapsed = ReplayElapsed +
	// RedoElapsed + VAMElapsed - ReplayHidden and the mount's other steps.
	VAMElapsed time.Duration
	Elapsed    time.Duration
	// The rest of the per-phase split of Elapsed, on the simulated clock:
	// ReplayElapsed is reading and parsing the log, RedoElapsed writing the
	// replayed name-table and leader images home (zero read-only).
	ReplayElapsed time.Duration
	RedoElapsed   time.Duration
	ScanStats
}

// ScanStats is how the VAMElapsed scan read the name table; MountStats and
// Stats().Recovery both carry it, under fsdctl's JSON keys.
type ScanStats struct {
	// Pages taken verified from sequential chunk transfers, chunk transfers
	// issued, and pages that fell back to the per-page dual-copy read.
	SweepPages     int
	SweepChunks    int
	SweepFallbacks int
	// The scan's two timelines (DESIGN §17): ScanArm is the device's busy
	// time over the scan (the sweep's transfers and any per-page fallback),
	// ScanCPU / MountWorkers the pool's share (checksums, copy compares and
	// the leaf decode), and ScanHidden how much of that share cost no
	// elapsed time because it ran while a transfer was in flight — on an
	// undamaged volume VAMElapsed = ScanArm + ScanCPU/MountWorkers -
	// ScanHidden. SweepStaleLeaves counts the leaf-kind pages the pool
	// decoded before their reachability was known and no chain link reached:
	// what the speculation cost, at a page's decode each.
	ScanArm          time.Duration `json:"scan_arm_sim_ns"`
	ScanCPU          time.Duration `json:"scan_pool_sim_ns"`
	ScanHidden       time.Duration `json:"scan_hidden_sim_ns"`
	SweepStaleLeaves int           `json:"sweep_stale_leaves"`
	// The replay under the decode (DESIGN §8): ReplayHidden is the replay,
	// redo and tree-open time that ran while the scan's pool still held
	// decode work, and cost the mount nothing; SweepRedecoded counts the
	// swept pages the log covers, checked and decoded again from their
	// overlaid images on the pool; SweepLate the pages swept after the
	// replay — what it allocated, and the home table's last part chunk.
	// ScanArm and ScanHidden leave the replay's share out.
	ReplayHidden   time.Duration `json:"replay_hidden_sim_ns"`
	SweepRedecoded int           `json:"sweep_redecoded"`
	SweepLate      int           `json:"sweep_late"`
}

// noteSweep records what the VAM scan and its region sweep did.
func (ms *MountStats) noteSweep(sw ntSweepStats) {
	ms.ScanStats = ScanStats{
		SweepPages: sw.Pages, SweepChunks: sw.Chunks, SweepFallbacks: sw.Fallbacks,
		ScanArm: sw.Arm, ScanCPU: sw.CPU, ScanHidden: sw.Hidden, SweepStaleLeaves: sw.StaleLeaves,
		ReplayHidden: sw.ThenHidden, SweepRedecoded: sw.Redecoded, SweepLate: sw.Late,
	}
}

// noteReplay records what the log replay found.
func (ms *MountStats) noteReplay(rs wal.RecoveryStats) {
	ms.LogRecords, ms.LogImagesApplied, ms.LogRepaired = rs.Records, rs.Images, rs.Repaired
	ms.LogTornRecords, ms.LogTailDiscarded, ms.LogGapBreaks = rs.TornRecords, rs.TailDiscarded, rs.GapBreaks
	ms.LogSectorsRead, ms.ReplayElapsed = rs.SectorsRead, rs.Elapsed
}

// OpStats counts logical file-system operations for the benchmark tables.
type OpStats struct {
	Creates, Opens, Deletes, Lists, Reads, Writes, Touches int
}

// opCounters is the race-free internal form of OpStats.
type opCounters struct {
	creates, opens, deletes, lists, reads, writes, touches atomic.Int64
}

// taggedFree is a deferred page free tagged with the log batch whose
// durability makes it safe: the runs belonged to a deleted (or contracted)
// file whose name-table images were staged into batch seq, so they may be
// reallocated only once Committed() >= seq — reallocating earlier would let
// new data land on pages a crash's replay would hand back to the old file.
// leader is a deleted file's leader sector (0 for none), whose deferred
// write is dropped at the same commit, before the runs are freed.
type taggedFree struct {
	seq    uint64
	runs   []alloc.Run
	leader int
}

// Volume is a mounted FSD volume. All public methods are safe for concurrent
// use. Cedar serialized every operation behind a single monitor; here the
// monitor is split so the common read path scales (see DESIGN.md
// "Concurrency model"):
//
//   - mu, a readers-writer lock, is the monitor. Lookups (Open, Stat, List,
//     ReadPages, Verify) share it; name-space mutations (Create, Delete,
//     Touch, Rename, Extend, ...) and lifecycle ops take it exclusively —
//     with Config.AsyncApply the mutations share it too and serialize per
//     name instead (see mutate).
//   - each File handle has its own lock for its entry snapshot.
//   - leaderSet.mu guards the staged leader images, which the read path
//     (leader verification) shares with the write path and the force path
//     (third flushes).
//   - vmMu guards the allocation map, the allocator, and the deferred
//     frees, shared between operations and the commit callback.
//
// Lock order: mu → File.mu → name stripes → WAL group (shared) → (B-tree →
// cache) → vmMu → leaderSet.mu → the log's staging lock. The log's force
// path (forceMu inside the WAL) takes the group exclusively while it cuts the
// batch, then acquires cache/vmMu/leaderSet.mu through its callbacks and
// never mu, so a force in flight blocks neither readers nor staging writers —
// it waits only for the operations that are mid-apply.
type Volume struct {
	d   *disk.Disk
	clk sim.Clock
	cpu *sim.CPU
	cfg Config
	lay layout
	// root is the root page writeRoot last wrote: Shutdown stamps it clean
	// (under mu), and a scrub that reads neither copy rewrites both from it.
	root rootPage

	mu    sync.RWMutex
	log   *wal.Log
	cache *ntCache
	nt    *btree.Tree
	vm    *vam.VAM
	al    *alloc.Allocator

	// dataCache is the file-data buffer cache (nil when disabled by
	// Config.DataCachePages < 0). It is write-through for named pages and
	// holds writes to fresh ones until the next force (held.go); its locks
	// are leaves: sharded per-frame locking under the shared monitor, never
	// a cache-global mutex on the hit path. Invalidation runs on Delete,
	// Contract, DropCaches, and the disk's damage observer, so scrub and
	// salvage always see the platter, not the cache — but for a held frame,
	// which the platter is still to get.
	dataCache *bufcache.Cache

	// readOnly marks a degraded read-only mount: mutations fail with
	// ErrReadOnly and nothing — log, name table, roots, VAM — is written.
	readOnly bool
	// ntOverride holds the log's replayed name-table sector images (keyed
	// like wal KindNameTable targets) over stale home copies: for good on a
	// read-only mount, and on a writable one from the replay to the end of
	// the mount scan, whose chunks were read before it. The cache and the
	// scan's pool goroutines read it (ntOverlay); the mount publishes it.
	ntOverride atomic.Pointer[map[uint64][]byte]
	// onSweep, when a test sets it, is called by every chunk function of the
	// name-table sweep with its stretch's index.
	onSweep func(stretch int)
	// copyAOnly is set while copy B of the name table holds salvage's
	// manifest (or a torn mirror of copy A): reads and writes use copy A
	// alone until salvage's finalize mirrors it over copy B.
	copyAOnly bool

	uidNext atomic.Uint64

	// leaders owns the staged leader images not yet home (leaders.go). A
	// holder of vmMu may take its lock, never the reverse.
	leaders leaderSet

	// hmu serializes what touches held data-cache frames (held.go): a write
	// to fresh pages, the force's pass over the held sectors, and a free's
	// drop of them. held, heldReqs and heldBufs are the pass's scratch. It
	// is taken before vmMu.
	hmu       sync.Mutex
	held      []bufcache.Sector
	heldReqs  []homeReq
	heldBufs  [][]byte
	heldStats heldCounters

	// vmMu guards vm, al, pendingFrees and group, the current commit group
	// (held.go).
	vmMu         sync.Mutex
	pendingFrees []taggedFree
	group        commitGroup

	// q is the asynchronous metadata pipeline (Config.AsyncApply): the
	// per-volume ordered intent queue whose single applier performs the
	// deferred B-tree work. nil on synchronous and read-only volumes. The
	// applier never takes mu; lifecycle ops (Shutdown, Crash, DropCaches,
	// Verify) hold mu exclusively and drain or close the queue, so the
	// applier is quiescent whenever exclusive holders inspect the tree.
	// apCPU is the applier's detached CPU: its work accumulates in
	// Stats().Intent.ApplierBusy without advancing the simulated clock.
	q     *intentq.Queue
	apCPU *sim.CPU

	closed atomic.Bool
	// ready marks the volume fully wired (set at the end of Format, mount,
	// and Salvage). Health transitions consult it before spawning repair
	// goroutines: recovery itself now charges the error budget, and a scrub
	// racing a half-wired mount would dereference nil structure.
	ready atomic.Bool
	// recovering marks the writable mount's recovery window — from wiring
	// the volume to goLive. Non-log reads that needed in-place retries
	// inside it (name-table cache fills, the saved map's load, the rebuild
	// scan) charge the error budget like the WAL's own replay reads do, so
	// a mount that limped through decayed media lands Degraded instead of
	// silently Healthy. Outside the window readSectorsRetry only counts:
	// a scrub retrying latent decay it is about to repair is routine work,
	// not a health event.
	recovering atomic.Bool
	ops        opCounters

	// recovery is what the mount returned, surfaced as Stats().Recovery;
	// zero on a volume Format or Salvage brought up.
	recovery MountStats

	// obs holds the tracing ring and the histograms behind Stats();
	// always non-nil (newVolume), so hot paths skip nil checks.
	obs *volObs

	// scrubMu serializes scrub passes (explicit and background).
	scrubMu sync.Mutex
	faults  faultCounters

	// health is the volume health FSM state (see health.go): a monotonic
	// Healthy → Degraded → ReadOnly → Offline ladder driven by the
	// write-path fault counters. healthMu guards only the reason string.
	health    atomic.Int32
	healthMu  sync.Mutex
	healthWhy string
}

// CPU returns the simulated CPU the volume charges.
func (v *Volume) CPU() *sim.CPU { return v.cpu }

// Disk returns the underlying device.
func (v *Volume) Disk() *disk.Disk { return v.d }

// Log exposes the redo log for stats and explicit forcing in benchmarks.
func (v *Volume) Log() *wal.Log { return v.log }

// VAM exposes the allocation map (read-only use).
func (v *Volume) VAM() *vam.VAM { return v.vm }

// opsSnapshot gathers the logical operation counters for Stats.
func (v *Volume) opsSnapshot() OpStats {
	return OpStats{
		Creates: int(v.ops.creates.Load()),
		Opens:   int(v.ops.opens.Load()),
		Deletes: int(v.ops.deletes.Load()),
		Lists:   int(v.ops.lists.Load()),
		Reads:   int(v.ops.reads.Load()),
		Writes:  int(v.ops.writes.Load()),
		Touches: int(v.ops.touches.Load()),
	}
}

// twoCopies reports whether name-table I/O goes to both copies: the layout
// has two (a single-copy volume puts copy B on copy A), and copy B does not
// hold a salvage manifest.
func (v *Volume) twoCopies() bool { return v.lay.ntB != v.lay.ntA && !v.copyAOnly }

// newVolume wires up the common structure, the name-table cache included.
func newVolume(d *disk.Disk, cfg Config, lay layout) *Volume {
	v := &Volume{
		d:       d,
		clk:     d.Clock(),
		cpu:     sim.NewCPU(d.Clock()),
		cfg:     cfg,
		lay:     lay,
		obs:     newVolObs(),
		leaders: leaderSet{imgs: make(map[int]stagedLeader)},
		group:   commitGroup{floor: -1},
	}
	v.cache = newNTCache(v, cfg.cacheSize())
	d.SetClassifier(func(addr int) disk.Class {
		if lay.metaRange(addr) {
			return disk.ClassMeta
		}
		return disk.ClassData
	})
	d.SetOpObserver(v.observeDiskOp)
	if pages := cfg.dataCachePages(); pages > 0 {
		v.dataCache = bufcache.New(pages)
		// Fault-injected damage (corruption, wild writes) changes the
		// platter behind the file system's back: drop any cached copies so
		// reads surface the damage instead of serving stale frames — but
		// not a held frame, whose write at the next force puts the sector
		// right. The observer runs under the device mutex and only touches
		// cache atomics and shard maps — it never calls back into the disk.
		d.SetDamageObserver(func(addr, n int) {
			v.dataCache.Damaged(addr, n)
		})
	}
	return v
}

// invalidateData drops cached frames for freed or rewritten runs, held ones
// with them: a file deleted before the force has its data never written.
// Callers either hold the monitor exclusively (synchronous Delete, Contract)
// or run on the intent applier; a shared-mode reader mid-fill on these
// sectors is fenced by the cache's generation-guarded fills, and the force's
// pass over held frames by hmu.
func (v *Volume) invalidateData(runs []alloc.Run) {
	if v.dataCache == nil {
		return
	}
	v.hmu.Lock()
	defer v.hmu.Unlock()
	for _, r := range runs {
		v.dataCache.Invalidate(int(r.Start), int(r.Len))
	}
}

// openVolume is the prologue of both mounts: it reads the root, refuses a
// volume whose salvage was interrupted, and builds the volume the root
// describes.
func openVolume(d *disk.Disk, cfg Config, o mountOptions, readOnly bool) (*Volume, rootPage, error) {
	root, err := readRoot(d, cfg.readRetries())
	if err != nil {
		return nil, root, err
	}
	// A valid salvage checkpoint means a salvage pass was interrupted
	// mid-rebuild: the name-table regions are in an intermediate state no
	// ordinary replay can repair and not safe to serve even read-only (copy B
	// may hold the salvage manifest and copy A a partial tree). Only resuming
	// the salvage (Mount with AllowSalvage, or Salvage directly) makes the
	// volume whole.
	if ck, ok := readSalvageCheckpoint(d, root.layout, cfg.readRetries()); ok {
		return nil, root, fmt.Errorf("core: interrupted salvage (phase %s): %w",
			ck.phase, ErrSalvageInProgress)
	}
	v := newVolume(d, cfg, root.layout)
	v.readOnly = readOnly
	if o.onVolume != nil {
		o.onVolume(v)
	}
	return v, root, nil
}

// useLog makes lg, as returned with err by wal.Format or wal.Open, the
// volume's log and installs its callbacks. (Its faults need none: the log
// reads and writes through the volume's own I/O, walConfig.)
func (v *Volume) useLog(lg *wal.Log, err error) error {
	if err != nil {
		return err
	}
	v.log = lg
	v.log.OnForce = v.observeForce
	v.log.DataHook = v.writeHeld
	v.log.OnAppend = func(n int, seq uint64) {
		v.trace(obs.Event{Kind: obs.EvWALAppend, OK: true, A: int64(n), B: int64(seq)})
	}
	v.log.FlushHook = func(int) (int, error) {
		due := v.log.Due()
		n, err := v.cache.flushThird(due)
		if err != nil {
			return n, err
		}
		m, err := v.flushLeaders(due)
		return n + m, err
	}
	v.log.OnCommit = func(seq uint64) {
		// Pages of deleted files become allocatable once the batch
		// carrying the deletion is durable. With the pipelined commit,
		// frees staged into a batch newer than seq stay deferred. A
		// deleted file's pending leader is dropped first: once its sector
		// is allocatable, no third crossing may write the old leader over
		// what a new owner puts there.
		v.vmMu.Lock()
		kept := v.pendingFrees[:0]
		for _, pf := range v.pendingFrees {
			if pf.seq <= seq {
				if pf.leader != 0 {
					v.leaders.drop(pf.leader)
				}
				v.al.FreeNow(pf.runs)
			} else {
				kept = append(kept, pf)
			}
		}
		v.pendingFrees = kept
		v.vmMu.Unlock()
	}
	return nil
}

// freeOnCommit defers runs, and the pending leader write of a deleted file
// whose leader is at sector leader (0 for none), until the log batch holding
// the caller's staged name-table images is durable. The tag is read after
// staging, so it can only name the images' batch or a later one —
// conservative: a free is never applied before its deletion commits, at
// worst one force late. Until then the leader stays pending, and a third
// crossing still writes it home: a crash before the deletion commits keeps
// the file, and the leader's only logged image may lie in the third being
// overwritten. That write cannot land on another file's page, because the
// sector is allocatable only after the same commit.
func (v *Volume) freeOnCommit(runs []alloc.Run, leader int) {
	if len(runs) == 0 {
		return
	}
	seq := v.log.Seq()
	v.vmMu.Lock()
	v.pendingFrees = append(v.pendingFrees, taggedFree{seq: seq, runs: runs, leader: leader})
	v.vmMu.Unlock()
}

// writeRoot writes r to both root copies and records it as v.root.
func (v *Volume) writeRoot(r rootPage) error {
	v.root = r
	buf := encodeRoot(r)
	// Barriers on both sides: what the root attests (a clean-shutdown
	// stamp covers every flush before it) must be durable first, and the
	// stamp itself must land before anything that assumes it.
	if err := v.d.Sync(); err != nil {
		return err
	}
	if err := v.writeSectors(v.lay.rootA, buf); err != nil {
		return err
	}
	if err := v.writeSectors(v.lay.rootB, buf); err != nil {
		return err
	}
	return v.d.Sync()
}

// readRoot returns the first of the root page's two copies that reads —
// after up to retries in-place retries of a transient fault each — and
// decodes. A root of the fixed-width entry format is ErrVolumeFormat.
func readRoot(d *disk.Disk, retries int) (rootPage, error) {
	for _, addr := range []int{0, 2} {
		buf, _, err := disk.ReadSectorsRetry(d, addr, 1, retries)
		if err != nil {
			continue
		}
		if r, ok := decodeRoot(buf); ok {
			if r.fixedEntries {
				return r, ErrVolumeFormat
			}
			return r, nil
		}
	}
	return rootPage{}, ErrRootLost
}

// newAllocator returns the run allocator over the layout's data region, its
// areas split where the layout says. Where the split is the central metadata
// the small-file area fills from that end, beside the log and name table.
func newAllocator(vm *vam.VAM, lay layout, cfg Config) (*alloc.Allocator, error) {
	return alloc.New(vm, alloc.Config{
		Lo:                lay.dataLo,
		Hi:                lay.dataHi,
		SmallThreshold:    cfg.smallThreshold(),
		Boundary:          lay.boundary,
		SmallFromBoundary: lay.smallFromBoundary(),
	})
}

// Format initializes an FSD volume on d and returns it mounted. Everything
// on the device is considered garbage.
func Format(d *disk.Disk, cfg Config) (*Volume, error) {
	lay, err := computeLayout(d.Geometry(), d.Params(), cfg)
	if err != nil {
		return nil, err
	}
	v := newVolume(d, cfg, lay)
	if err := v.useLog(wal.Format(d, lay.logBase, lay.logSize, v.clk, v.walConfig())); err != nil {
		return nil, err
	}
	// A format over a previously salvaged-then-interrupted volume must not
	// leave the stale salvage checkpoint blocking mounts.
	if err := clearSalvageCheckpoint(v.writeSectors, lay); err != nil {
		return nil, err
	}

	v.vm = lay.emptyVAM()
	v.al, err = newAllocator(v.vm, lay, cfg)
	if err != nil {
		return nil, err
	}

	// Build the empty name table through the logged cache, then
	// checkpoint so the home copies exist.
	v.nt, err = btree.Create(v.cache)
	if err != nil {
		return nil, err
	}
	if err := v.log.Checkpoint(); err != nil {
		return nil, err
	}

	v.uidNext.Store(1 << 32)
	if err := v.writeRoot(rootPage{layout: lay, clean: false, uidChunk: 1, formatted: v.clk.Now()}); err != nil {
		return nil, err
	}
	// Format-time activity should not pollute measurements.
	v.log.ResetStats()
	v.d.ResetStats()
	v.goLive()
	return v, nil
}

// mountWritable attaches to a previously formatted volume read-write: after a
// crash it replays the log under the name-table scan that rebuilds the
// allocation map (replayScan); after a clean shutdown it replays nothing and
// loads the saved map (mountClean). Behavioural Config fields (commit
// interval, cache size, mount workers) apply; layout fields come from the
// volume root page. This is the default path of Mount.
func mountWritable(d *disk.Disk, cfg Config, o mountOptions) (*Volume, MountStats, error) {
	var ms MountStats
	start := d.Clock().Now()
	v, root, err := openVolume(d, cfg, o, false)
	if err != nil {
		return nil, ms, err
	}
	lay := root.layout
	v.recovering.Store(true)
	ms.CleanShutdown = root.clean

	// From this moment the volume is in use: a crash must recover.
	root.clean = false
	root.uidChunk++
	if err := v.writeRoot(root); err != nil {
		return nil, ms, err
	}
	v.uidNext.Store(root.uidChunk << 32)

	if err := v.useLog(wal.Open(d, lay.logBase, lay.logSize, v.clk, v.walConfig())); err != nil {
		return nil, ms, err
	}

	// A crash mount replays — without resetting the log. The reset
	// (CompleteRecovery) is deferred until every replayed image is durably
	// home: the whole sequence from here to the barrier below is pure redo,
	// so a second crash anywhere inside it leaves the log intact and the
	// next mount replays the very same images over whatever subset already
	// landed. Its leader redo writes the images replayScan returns.
	var leaders []wal.PageImage
	if ms.CleanShutdown {
		err = v.mountClean(&ms)
	} else {
		leaders, err = v.replayScan(v.log, &ms)
	}
	if err != nil {
		return nil, ms, err
	}
	if err := vam.Invalidate(v.writeSectors, lay.vamBase); err != nil {
		return nil, ms, err
	}
	redoStart := v.clk.Now()
	for _, im := range leaders {
		if err := v.writeSectors(int(im.Target), im.Data); err != nil {
			return nil, ms, err
		}
	}
	ms.RedoElapsed += v.clk.Now() - redoStart

	// Point of no return: every replayed image (name-table pages, leaders)
	// is written home — fence them, then reset the log. A crash before the
	// reset replays the same log again idempotently; a crash after it finds
	// the home state complete under an empty log. A clean mount resets it
	// too, so the records Shutdown left can never replay after a later crash.
	if err := v.d.Sync(); err != nil {
		return nil, ms, err
	}
	if err := v.log.CompleteRecovery(); err != nil {
		return nil, ms, err
	}

	v.al, err = newAllocator(v.vm, lay, cfg)
	if err != nil {
		return nil, ms, err
	}
	ms.Elapsed = v.clk.Now() - start
	v.noteRecovery(ms)
	v.recovering.Store(false)
	v.goLive()
	return v, ms, nil
}

// mountClean is both mounts' order after a clean shutdown. Shutdown stamps
// the root only after Checkpoint has put every logged image home, behind a
// barrier (writeRoot), so the log holds nothing the home copies lack and
// nothing is replayed: the tree opens on the home copies and the saved
// allocation map loads. Only a map that will not load is rebuilt, by the
// name-table scan.
func (v *Volume) mountClean(ms *MountStats) error {
	t, err := btree.Open(v.cache)
	if err != nil {
		return fmt.Errorf("core: name table unreadable: %w", err)
	}
	v.nt = t
	if v.vm, err = vam.Load(v.readSectorsRetryInto, v.lay.vamBase, v.lay.total); err == nil {
		return nil
	}
	ms.VAMReconstructed = true
	scanStart := v.clk.Now()
	_, sw, err := v.mountScan(t.AllocatedPages(), nil)
	ms.noteSweep(sw)
	ms.VAMElapsed = v.clk.Now() - scanStart
	return err
}

// homeTable opens the pre-replay tree to learn how many pages the home
// copies allocate, and returns that with the meta page it read. It reads the
// meta page's home copies itself — copy A, and copy B only if A does not
// open — once each, without the retries and the cache of a miss: the count
// only sizes what the sweep reads before the replay, and a page it cannot
// read there is swept after it. 0 and nil: neither copy opens.
func (v *Volume) homeTable() (int, []byte) {
	addrA, addrB := v.lay.ntPageAddrs(0)
	addrs := []int{addrA}
	if v.twoCopies() {
		addrs = append(addrs, addrB)
	}
	for _, addr := range addrs {
		page, err := v.d.ReadSectors(addr, NTPageSectors)
		if err != nil {
			continue
		}
		v.cpu.Charge(csumCost)
		if !crcOK(page) {
			continue
		}
		if t, err := btree.Open(homeMeta{page: page, pages: v.lay.ntPages}); err == nil {
			return t.AllocatedPages(), page
		}
	}
	return 0, nil
}

// homeMeta is a btree.Pager that holds a meta page and nothing else: enough
// for btree.Open.
type homeMeta struct {
	page  []byte
	pages int
}

func (m homeMeta) PageSize() int { return NTPageSize }
func (m homeMeta) NumPages() int { return m.pages }
func (m homeMeta) Read(id uint32) ([]byte, error) {
	if id != 0 {
		return nil, btree.ErrCorrupt
	}
	return m.page, nil
}
func (m homeMeta) Write(uint32, []byte) error { return ErrReadOnly }

// replayScan is the crash mount's replay and its name-table scan, in one pass
// (DESIGN §8, §17) — the one place a mount replays the log. The pre-replay
// tree is opened only to learn how many pages the home copies allocate
// (homeTable), without the cache. The sweep then reads the whole chunks of
// that prefix, both copies, with the pool decoding copy A behind the arm;
// after the last transfer, while the pool is still decoding, the driver
// replays lg (nil: no log to replay) — on a writable mount it then writes the
// replayed name-table images home (applyNTImages) — publishes the replayed
// sectors as the overlay and opens the replayed tree. Only then do the merges
// run, so they see post-replay pages: a swept page the log covers is checked
// and decoded again from its overlaid image by the pool, and the pages past
// the swept prefix are swept after the replay. The scan rebuilds the
// allocation map; replayScan returns the replayed leader images whose file
// still owns the sector (ownedLeaders).
//
// Nothing is written before the replay completes but the root stamp, and the
// redo is written before anything the mount writes after the scan, so a
// second crash anywhere leaves the log intact. A read-only mount writes
// nothing: its overlay stays in place for good, and a log it cannot open or
// replay leaves it serving the home state (LogUnavailable). A writable
// mount's redo puts the overlay's images home, so the overlay goes once the
// scan is done.
func (v *Volume) replayScan(lg *wal.Log, ms *MountStats) ([]wal.PageImage, error) {
	var ims []wal.PageImage
	home, meta := v.homeTable()
	replay := func() (int, error) {
		if lg == nil {
			ms.LogUnavailable = true
		} else {
			var rs wal.RecoveryStats
			var err error
			ims, rs, err = lg.Replay()
			switch {
			case err != nil && !v.readOnly:
				return 0, err
			case err != nil:
				ms.LogUnavailable = true
				ims = nil
			default:
				ms.noteReplay(rs)
			}
		}
		var nt []ntImage
		overlay := make(map[uint64][]byte)
		for _, im := range ims {
			if im.Kind == wal.KindNameTable {
				nt = append(nt, ntImage{first: im.Target, data: im.Data})
				overlay[im.Target] = im.Data
			}
		}
		if !v.readOnly {
			// Only the final image of each page touches the disk, in
			// ascending address order — a short sequential sweep over the
			// hot name-table pages rather than a write per logged image.
			redoStart := v.clk.Now()
			if err := v.applyNTImages(nt); err != nil {
				return 0, err
			}
			ms.RedoElapsed = v.clk.Now() - redoStart
		}
		v.setOverlay(overlay)
		// The copies of the meta page differ only where the log holds the
		// newer sectors, so the home page read before the replay with the
		// overlay laid on is the replayed page, without reading it again.
		if meta = v.overlayNT(0, meta); meta != nil && crcOK(meta) {
			v.cache.admit(0, meta)
		}
		t, err := btree.Open(v.cache)
		if err != nil {
			return 0, fmt.Errorf("core: name table unreadable after replay: %w", err)
		}
		v.nt = t
		return t.AllocatedPages(), nil
	}
	scanStart := v.clk.Now()
	owners, sw, err := v.mountScan(home, replay)
	ms.noteSweep(sw)
	if err != nil {
		return nil, err
	}
	ms.VAMReconstructed = true
	// The scan's own cost: its window less what the replay added to it.
	ms.VAMElapsed = v.clk.Now() - scanStart - sw.Then + sw.ThenHidden
	if !v.readOnly {
		v.setOverlay(nil)
	}
	return ownedLeaders(ims, owners), nil
}

// ownedLeaders picks out of the replayed images ims the leader images whose
// file still owns the sector by the post-replay name table (owners, from the
// scan), in ascending address order: a leader image of a since-deleted file
// can never stomp a reallocated page.
func ownedLeaders(ims []wal.PageImage, owners map[int]uint64) []wal.PageImage {
	var out []wal.PageImage
	for _, im := range ims {
		if im.Kind != wal.KindLeader {
			continue
		}
		uid, ok := leaderUID(im.Data)
		if owner, present := owners[int(im.Target)]; ok && present && owner == uid {
			out = append(out, im)
		}
	}
	return out
}

// noteRecovery keeps what the mount did for Stats().Recovery and emits the
// EvRecovery trace event (recorded into the ring even while tracing is
// disabled, so post-mount inspection sees what recovery did).
func (v *Volume) noteRecovery(ms MountStats) {
	v.recovery = ms
	v.obs.tracer.Record(obs.Event{
		Time: v.clk.Now(), Kind: obs.EvRecovery, Op: v.Health().String(),
		OK: v.Health() < HealthReadOnly,
		A:  int64(ms.LogRecords), B: int64(ms.LogImagesApplied),
		C: int64(ms.LogTornRecords + ms.LogGapBreaks), D: int64(ms.ReplayElapsed),
	})
}

// goLive is the epilogue of every bring-up — Format, both mounts and Salvage.
// A writable volume under AsyncApply starts the intent queue; a read-only one
// has no log to stage into and does not. Then the volume is marked fully
// wired, and repair work deferred while mounting runs: a volume whose
// recovery burned through the error budget comes up Degraded with its
// aggressive scrub pass starting now, not silently Healthy.
func (v *Volume) goLive() {
	if !v.readOnly && v.cfg.AsyncApply {
		v.startIntentQueue()
	}
	v.ready.Store(true)
	if v.Health() == HealthDegraded && !v.readOnly && !v.closed.Load() {
		go func() { _, _ = v.Scrub() }()
	}
}

// applyNTImages writes the surviving name-table sector images, in ascending
// target order, home through writeNTHome, the steady-state flushes' sweep.
// The whole pass is pure redo: a crash anywhere in it leaves the log intact
// and the next mount writes the same images over whatever subset landed.
func (v *Volume) applyNTImages(imgs []ntImage) error {
	v.cache.mu.Lock()
	defer v.cache.mu.Unlock()
	_, _, err := v.cache.writeNTHome(imgs)
	return err
}

// scanResult is what decoding one leaf contributes to a rebuild scan.
type scanResult struct {
	leaders []leaderRef
	runs    []alloc.Run
	decoded bool
}

// leaderRef names the file owning a leader sector.
type leaderRef struct {
	addr int
	uid  uint64
}

// decodeLeaf fills res from the entries of one leaf page and returns the
// decode's modelled processor cost, for the caller to charge where it runs.
// It touches nothing but the page and res.
func decodeLeaf(page []byte, res *scanResult) time.Duration {
	entries := 0
	*res = scanResult{decoded: true}
	_ = btree.LeafEntries(page, func(k, val []byte) bool { // page is leaf-kind: no error to have
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		e, err := decodeEntry(name, ver, val)
		if err != nil {
			return true
		}
		entries++
		if len(e.Runs) > 0 {
			res.leaders = append(res.leaders, leaderRef{int(e.Runs[0].Start), e.UID})
		}
		res.runs = append(res.runs, e.Runs...)
		return true
	})
	return time.Duration(entries) * sim.CostBTreeOp / 4
}

// mountScan reads the whole name table once, rebuilding the VAM and
// returning the leader-sector ownership map. "Since the file name
// table is a compact structure with a great deal of locality, it can be
// processed quickly" — provided it is read the way it is laid out. Following
// the leaf chain through the page cache reads copy A and then copy B of one
// page at a time, a long seek each way; instead the allocated prefix of each
// copy is swept in device order (sweepNT), and while the arm is still
// streaming the copies in, the sweep's pool — MountWorkers wide — decodes
// every leaf-kind page whose CRC held into a per-page result, before anyone
// knows whether the page is reachable or agrees with its other copy. The
// decode — the bulk of the paper's ~20 s — therefore runs beside the
// transfers, and the scan costs the larger of the two (DESIGN §17).
//
// With then set (the crash mount, replayScan), home is what the home copies
// allocate and the sweep's first range is its whole chunks; then runs the
// replay after their last transfer, while the pool is still decoding, and
// returns the replayed table's end. The rest — the home table's last part
// chunk and what the replay allocated — is swept after it on the same chunk
// grid, so the transfers are the ones a sweep of the replayed table makes.
// With then nil (a clean mount whose saved map will not load, mountClean,
// and a salvage resumed at finalize), home is the table's end and the whole
// of it is swept.
//
// What the speculation may not do is decide anything. Once both copies are
// in, the leaves the chain reaches are picked out in memory by following
// their links from the leftmost leaf, and only their results are merged, in
// chain order: a stale leaf image no link reaches was decoded and is dropped
// (its decode is paid for and counted, StaleLeaves); a page that went suspect
// loses its result and, if the chain needs it, is decoded again here, from
// whichever copy the per-page path served, on the foreground's clock. The
// rebuilt state is the same at every width. Swept pages enter the page cache
// as the misses they replace would have.
func (v *Volume) mountScan(home int, then func() (int, error)) (map[int]uint64, ntSweepStats, error) {
	v.vm = v.lay.emptyVAM()
	first := home
	if then != nil {
		first = home / ntSweepPages * ntSweepPages
	}
	// The pool writes a page's result into its slot: those of the first
	// range exist before it starts, the late range's before it is handed them.
	n := first
	parts := make([]scanResult, first)
	var late []scanResult
	part := func(id uint32) *scanResult {
		if int(id) < first {
			return &parts[id]
		}
		return &late[int(id)-first]
	}
	pages := make([][]byte, first)
	var step func() (int, error)
	if then != nil {
		step = func() (int, error) {
			end, err := then()
			if err != nil {
				return 0, err
			}
			n = max(end, first)
			late = make([]scanResult, n-first)
			pages = append(pages, make([][]byte, n-first)...)
			return n, nil
		}
	}
	var lost error
	armStart := v.d.Stats().BusyTime()
	sw, err := v.sweepNT(0, first, v.twoCopies(), v.cfg.mountWorkers(), nil, step,
		func(w *parscan.Worker, id uint32, page []byte) {
			if btree.IsLeaf(page) {
				w.Charge(decodeLeaf(page, part(id)))
			} else {
				*part(id) = scanResult{}
			}
		},
		func(id uint32, page []byte) {
			pages[id] = page
			v.cache.admit(id, page)
		},
		func(id uint32) {
			// Damage: the cache's own miss path reads both copies with
			// retries (charging the health budget during recovery) and
			// serves whichever survives. A page lost in both copies fails
			// the mount only if the leaf walk below needs it. What the pool
			// made of copy A is not the survivor's to answer for.
			*part(id) = scanResult{}
			page, err := v.cache.Read(id)
			if err != nil && lost == nil {
				lost = err
			}
			pages[id] = page
		})
	if err != nil {
		return nil, sw, err
	}
	stale := 0 // pages the pool decoded, less those the chain goes on to reach
	for id := range n {
		if part(uint32(id)).decoded {
			stale++
		}
	}
	chain, err := v.nt.LeafChain(n, func(id uint32) []byte {
		if int(id) >= n {
			return nil
		}
		return pages[id]
	})
	if err != nil {
		if lost != nil {
			err = fmt.Errorf("%w (%v)", err, lost)
		}
		return nil, sw, err
	}
	owners := make(map[int]uint64)
	for _, id := range chain {
		res := part(id)
		if res.decoded {
			stale--
		} else {
			v.cpu.Charge(decodeLeaf(pages[id], res))
		}
		for _, l := range res.leaders {
			owners[l.addr] = l.uid
		}
		for _, r := range res.runs {
			v.vm.MarkAllocated(int(r.Start), int(r.Len))
		}
	}
	sw.StaleLeaves = stale
	sw.Arm = v.d.Stats().BusyTime() - armStart - sw.ThenArm
	return owners, sw, nil
}

// Force makes all buffered metadata updates durable now ("clients may force
// the log"). The sim-time wait to acquire the monitor is recorded in the
// LockWait histogram — commit-path lock contention is the cost the split
// monitor is supposed to have removed, so it is worth watching.
func (v *Volume) Force() (err error) {
	defer v.span("force")(&err)
	before := v.clk.Now()
	v.mu.RLock()
	defer v.mu.RUnlock()
	wait := v.clk.Now() - before
	v.obs.lockWait.ObserveDuration(wait)
	v.trace(obs.Event{Kind: obs.EvLockWait, Op: "force", OK: true, A: int64(wait)})
	if v.closed.Load() {
		return ErrClosed
	}
	if err := v.healthErr(); err != nil {
		return err
	}
	if v.q != nil {
		// Every acked intent must reach the log's pending batch before the
		// force, or Force would not cover it.
		if err := v.q.Drain(); err != nil {
			return err
		}
	}
	return v.log.Force()
}

// CommitSeq returns the commit sequence covering every update acknowledged
// so far: once WaitCommitted returns for it, all of them are durable. On a
// synchronous volume this is the log batch sequence; with the async pipeline
// it is the newest intent sequence. Pair with WaitCommitted for
// group-commit-aware fsync.
func (v *Volume) CommitSeq() uint64 {
	if v.q != nil {
		return v.q.Enqueued()
	}
	if v.log == nil {
		return 0
	}
	return v.log.Seq()
}

// WaitCommitted blocks until commit sequence seq is durable, forcing as
// needed. It intentionally takes no volume lock: waiting must not serialize
// other operations (that is the point of the pipelined commit). With the
// async pipeline it first waits for intent seq to be applied — which stages
// its log images — and then forces the batch holding them.
func (v *Volume) WaitCommitted(seq uint64) error {
	if v.closed.Load() {
		return ErrClosed
	}
	if err := v.healthErr(); err != nil {
		return err
	}
	if v.q != nil {
		if err := v.q.WaitApplied(seq); err != nil {
			return err
		}
		return v.log.WaitCommitted(v.log.Seq())
	}
	return v.log.WaitCommitted(seq)
}

// Tick gives the group-commit engine a chance to run; simulations call it
// when virtual time passes without file-system activity.
func (v *Volume) Tick() error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed.Load() {
		return ErrClosed
	}
	if v.healthErr() != nil {
		return nil
	}
	return v.log.MaybeForce()
}

// Shutdown performs a controlled shutdown: force the log, write all dirty
// metadata home, save the allocation map, and stamp the volume clean: the
// root it wrote at bring-up, rewritten clean without reading the pair back.
func (v *Volume) Shutdown() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed.Load() {
		return ErrClosed
	}
	if v.healthErr() != nil {
		// A degraded mount wrote nothing and must leave the volume
		// exactly as found — including the unclean root stamp, so the
		// next writable mount still runs recovery. A volume the health
		// FSM demoted must likewise stay stamped unclean: durability of
		// its recent mutations is exactly what is in doubt.
		v.stopIntentQueue(false)
		v.closed.Store(true)
		return nil
	}
	if err := v.stopIntentQueue(true); err != nil {
		return err
	}
	if err := v.log.Checkpoint(); err != nil {
		return err
	}
	// A reserved page is allocated in memory alone: the saved map must not
	// hold it, or the next mount would never hand it out.
	v.vmMu.Lock()
	v.releaseReserved(true)
	v.vmMu.Unlock()
	if err := v.vm.Save(v.writeSectors, v.lay.vamBase); err != nil {
		return err
	}
	root := v.root
	root.clean = true
	if err := v.writeRoot(root); err != nil {
		return err
	}
	v.closed.Store(true)
	return nil
}

// Crash abandons the volume without any cleanup and halts the device,
// modelling a power failure. The device can be Revived and re-Mounted.
func (v *Volume) Crash() {
	v.mu.Lock()
	defer v.mu.Unlock()
	// A crash abandons unapplied intents: nothing they promised was acked
	// (acks come only from WaitCommitted), so dropping them wholesale is
	// exactly the atomicity the durability contract allows.
	v.stopIntentQueue(false)
	v.closed.Store(true)
	v.d.Halt()
}

// DropCaches forces pending metadata, writes everything home, and empties
// the name-table cache, so the next operations run cold. For measurement
// harnesses only.
func (v *Volume) DropCaches() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed.Load() {
		return ErrClosed
	}
	if err := v.healthErr(); err != nil {
		return err
	}
	if err := v.DrainIntents(); err != nil {
		return err
	}
	if err := v.log.Checkpoint(); err != nil {
		return err
	}
	v.cache.dropAll()
	if v.dataCache != nil {
		v.dataCache.DropAll()
	}
	return nil
}

// LogRegionOf reads a volume's root page and returns its log region without
// mounting or writing anything (fsdctl log lists the log of a crashed image
// with it and wal.Inspect).
func LogRegionOf(d *disk.Disk) (base, size int, err error) {
	root, err := readRoot(d, Config{}.readRetries())
	if err != nil {
		return 0, 0, err
	}
	return root.layout.logBase, root.layout.logSize, nil
}

// ModelInfo reports the layout facts the analytical model's scripts need:
// the cylinder distances from the active data area — where a fresh volume's
// small files land, the small area's metadata end — to the name table and
// the log.
func (v *Volume) ModelInfo() (dataToNTCyl, dataToLogCyl int) {
	g := v.d.Geometry()
	dataCyl := g.Cylinder(v.lay.smallOrigin())
	nt := g.Cylinder(v.lay.ntA) - dataCyl
	if nt < 0 {
		nt = -nt
	}
	lg := g.Cylinder(v.lay.logBase) - dataCyl
	if lg < 0 {
		lg = -lg
	}
	return nt, lg
}

// nextUID allocates a volume-unique file identifier.
func (v *Volume) nextUID() uint64 {
	return v.uidNext.Add(1) - 1
}

// begin is the common entry for public operations; the caller holds the
// monitor in the mode matching the operation.
func (v *Volume) begin() error {
	if v.closed.Load() {
		return ErrClosed
	}
	if v.Health() == HealthOffline {
		return ErrOffline
	}
	v.cpu.Charge(sim.CostSyscall)
	if v.healthErr() != nil {
		// Read-only (by mount or by health) volumes never force: reads
		// keep serving, nothing new is written.
		return nil
	}
	return v.log.MaybeForce()
}

// beginMutate is begin for operations that modify the volume; a degraded
// read-only mount refuses them before they touch anything, and on an async
// volume whose applier hit a sticky error every further mutation reports it
// rather than enqueueing work that would be skipped.
func (v *Volume) beginMutate() error {
	if err := v.healthErr(); err != nil {
		return err
	}
	if v.q != nil {
		if err := v.q.Err(); err != nil {
			return fmt.Errorf("core: intent applier failed: %w", err)
		}
	}
	return v.begin()
}

// ReadOnly reports whether the volume was mounted with the ReadOnly option.
func (v *Volume) ReadOnly() bool { return v.readOnly }
