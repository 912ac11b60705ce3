package core

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/wal"
)

// CacheStats counts name-table cache activity.
type CacheStats struct {
	Hits       int
	Misses     int
	HomeWrites int // sectors written home, both copies counted (third flushes, shutdown)
	// Data holds the file-data buffer cache counters (internal/bufcache).
	// All zero when the volume runs with the data cache disabled.
	Data DataCacheStats
	// HomeWriteOps is the number of disk requests that carried HomeWrites.
	HomeWriteOps int
}

// DataCacheStats counts file-data buffer cache activity: per-sector hits and
// misses, sectors fetched ahead of demand and what became of them, clustered
// transfers that merged run boundaries, and frame turnover.
type DataCacheStats struct {
	Hits             int // sectors served from cache
	Misses           int // sectors that went to disk
	ReadAheadSectors int // sectors fetched beyond the demand read
	CoalescedReads   int // read transfers that crossed run boundaries
	CoalescedWrites  int // write transfers that crossed run boundaries
	Invalidated      int // frames dropped by delete/contract/damage
	Evicted          int // frames evicted by replacement
	Size             int // frames currently resident
	Capacity         int // frame capacity
	// ReadAheadUsed and ReadAheadWasted split the sectors read ahead by their
	// fate: hit by a reader, or evicted or invalidated before any reader
	// came (the rest are still resident, unread). A wasted share that grows
	// says the stream window is too large for the cache's probation half.
	ReadAheadUsed   int
	ReadAheadWasted int
	// Promotions counts frames a second reference moved to the protected
	// list: the re-read working set the replacement policy shields from
	// read-once traffic.
	Promotions int
}

// AllocStats counts how the growth of files was placed; see alloc.Stats.
type AllocStats = alloc.Stats

// CommitStats reports group-commit activity: the WAL counters plus the
// batching distributions measured by the observability layer. The paper's
// Table 3 ("reduction in file operations") is BatchingFactor on a metadata
// hot-spot workload.
type CommitStats struct {
	Forces           int
	Records          int
	ImagesStaged     int
	ImagesLogged     int
	ImagesElided     int
	SectorsWritten   int
	MinRecordSectors int
	MaxRecordSectors int
	ThirdCrossings   int
	HomeFlushes      int
	// BatchingFactor is ImagesStaged / ImagesLogged: how many staged page
	// images each written image absorbed.
	BatchingFactor float64
	// BatchImages, RecordsPerForce, and ForceInterval are distributions
	// over the forces that wrote records (images per batch, records per
	// force, simulated ns between force starts).
	BatchImages     obs.HistSnapshot
	RecordsPerForce obs.HistSnapshot
	ForceInterval   obs.HistSnapshot
	// Adaptive reports whether the load-adaptive force controller is on;
	// ForceDeadline is its current deadline (the fixed interval otherwise,
	// 0 in synchronous mode).
	Adaptive      bool
	ForceDeadline time.Duration
}

// IntentStats reports the asynchronous metadata pipeline. All zero (and
// Enabled false) on a synchronous volume.
type IntentStats struct {
	Enabled  bool
	Depth    int    // intents enqueued but not yet applied
	MaxDepth int    // queue-depth high-water mark
	Enqueued uint64 // intents accepted (== the async commit sequence)
	Applied  uint64 // intents applied
	// ReaderWaits counts Wait* calls that actually blocked on pending
	// intents (readers and conflicting writers).
	ReaderWaits int64
	// ApplyLag is the distribution of enqueue-to-apply sim time (ns).
	ApplyLag obs.HistSnapshot
	// ApplierBusy is the total CPU the applier charged to its detached
	// core (deferred B-tree and cache work).
	ApplierBusy time.Duration
}

// RecoveryStats snapshots what the mount-time log replay had to absorb: the
// wal.RecoveryStats counters captured once when the volume came up. Ran is
// false on volumes created by Format (nothing to replay) and on read-only
// mounts that skipped the log entirely (MountStats.LogUnavailable).
type RecoveryStats struct {
	Ran           bool
	CleanShutdown bool
	Records       int // records replayed
	Images        int // page images applied
	Repaired      int // images or headers recovered from their copy
	TornRecords   int // records torn mid-write by the crash
	TailDiscarded int // images of an incomplete final batch, discarded
	GapBreaks     int // replay stops at a missing record
	SectorsRead   int
	Elapsed       time.Duration // replay sim time
	// The mount's other phases on the sim clock, and how the VAM scan read
	// the name table (see MountStats): redo write-back of the replayed
	// images, the scan, and its region sweep's verified pages, chunk
	// transfers and per-page fallbacks.
	RedoElapsed    time.Duration
	ScanElapsed    time.Duration
	SweepPages     int
	SweepChunks    int
	SweepFallbacks int
	// The scan's two timelines and what its speculative decode cost
	// (MountStats' fields of the same names; the JSON keys are fsdctl's).
	ScanArm          time.Duration `json:"scan_arm_sim_ns"`
	ScanCPU          time.Duration `json:"scan_pool_sim_ns"`
	ScanHidden       time.Duration `json:"scan_hidden_sim_ns"`
	SweepStaleLeaves int           `json:"sweep_stale_leaves"`
}
type SpanStats struct {
	Count   int64
	Errors  int64
	Latency obs.HistSnapshot
}

// Stats is the one-call snapshot of every volume counter: logical
// operations, cache, group commit, raw device activity, fault handling, and
// per-operation spans. All sources are atomics (or briefly-held stat locks
// never spanning I/O), so Stats never blocks behind disk activity and is
// safe to call concurrently with any operation.
type Stats struct {
	Ops    OpStats
	Cache  CacheStats
	Alloc  AllocStats
	Commit CommitStats
	Intent IntentStats
	Disk   disk.Stats
	Faults FaultStats
	// Health is the volume health state; HealthReason names the cause of
	// the last downward transition (empty while healthy).
	Health       Health
	HealthReason string
	// Recovery reports what the mount-time log replay did (torn records,
	// discarded tails, gap breaks); zero with Ran false on freshly
	// formatted volumes.
	Recovery RecoveryStats
	// Spans maps operation name ("open", "create", ...) to its span
	// summary. Only operations invoked at least once appear.
	Spans map[string]SpanStats
	// DiskOpTime is the distribution of whole-op device times (ns),
	// fed by the disk's per-op observer.
	DiskOpTime obs.HistSnapshot
	// LockWait is the distribution of sim-time waits to acquire the
	// volume monitor on the explicit-force path (ns).
	LockWait obs.HistSnapshot
	// DiskRegions splits the device activity by where on the platter it
	// landed, one element per region in layout order.
	DiskRegions []DiskRegionStats
}

// DiskRegionStats is the device activity that started in one region of the
// volume layout: "log", "nt-a", "nt-b" (the two name-table copies),
// "vam+root" (the VAM save area and the boot pages) or "data".
type DiskRegionStats struct {
	Region string
	Read   DiskRegionIO
	Write  DiskRegionIO
}

// DiskRegionIO counts one direction of one region. Busy is Seek + Rotation
// + Transfer (+ injected stall) on the sim clock; Rotation is the time the
// head spent waiting for a sector to come round.
type DiskRegionIO struct {
	Ops      int64
	Sectors  int64
	Busy     time.Duration
	Seek     time.Duration
	Rotation time.Duration
	Transfer time.Duration
}

// Span names, one per public Volume operation wrapped by v.span.
var spanNames = []string{
	"create", "open", "stat", "touch", "setkeep", "delete", "list",
	"read", "write", "extend", "contract", "setbytesize", "rename", "force",
	"scrub", "verify",
}

// latencyBuckets covers the sim-time range of one volume operation: a
// cache-hit open costs ~1 ms of CPU, a seek-heavy create ~100 ms, a forced
// commit a few hundred ms.
var latencyBuckets = obs.DurationBuckets(
	time.Millisecond, 2*time.Millisecond, 5*time.Millisecond,
	10*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond,
	100*time.Millisecond, 200*time.Millisecond, 500*time.Millisecond,
	time.Second, 2*time.Second, 5*time.Second, 10*time.Second,
)

// spanMetrics is the per-operation accumulator behind SpanStats.
type spanMetrics struct {
	count obs.Counter
	errs  obs.Counter
	lat   *obs.Histogram
}

// volObs bundles the volume's observability state: the trace ring and the
// histograms the commit and disk observers feed. The spans map is built
// once in newVolObs and read-only afterwards, so span() needs no lock.
type volObs struct {
	tracer *obs.Tracer
	spans  map[string]*spanMetrics

	batchImages     *obs.Histogram
	recordsPerForce *obs.Histogram
	forceInterval   *obs.Histogram
	diskOpTime      *obs.Histogram
	lockWait        *obs.Histogram

	// applyLag and queueDepth observe the async metadata pipeline: the
	// enqueue-to-apply latency distribution and the live unapplied-intent
	// count. Present on every volume (zero on synchronous ones) so the
	// hooks need no nil checks.
	applyLag   *obs.Histogram
	queueDepth obs.Gauge

	// regions accumulates disk ops by layout region and direction
	// (0 read, 1 write); fed by observeDiskOp under the device mutex.
	regions [len(diskRegionNames)][2]regionIO
}

// The regions layout.region sorts disk addresses into, and their names.
const (
	regionLog = iota
	regionNTA
	regionNTB
	regionVAMRoot
	regionData
)

var diskRegionNames = [...]string{
	regionLog: "log", regionNTA: "nt-a", regionNTB: "nt-b",
	regionVAMRoot: "vam+root", regionData: "data",
}

// regionIO is the accumulator behind one DiskRegionIO (times in ns).
type regionIO struct{ ops, sectors, busy, seek, rot, transfer atomic.Int64 }

func (r *regionIO) add(e disk.OpEvent) {
	r.ops.Add(1)
	r.sectors.Add(int64(e.Sectors))
	r.busy.Add(int64(e.Elapsed()))
	r.seek.Add(int64(e.Seek))
	r.rot.Add(int64(e.Rot))
	r.transfer.Add(int64(e.Transfer))
}

func (r *regionIO) snapshot() DiskRegionIO {
	return DiskRegionIO{
		Ops: r.ops.Load(), Sectors: r.sectors.Load(), Busy: time.Duration(r.busy.Load()),
		Seek: time.Duration(r.seek.Load()), Rotation: time.Duration(r.rot.Load()),
		Transfer: time.Duration(r.transfer.Load()),
	}
}

func newVolObs() *volObs {
	o := &volObs{
		tracer: obs.NewTracer(4096),
		spans:  make(map[string]*spanMetrics, len(spanNames)),
		batchImages: obs.NewHistogram(
			1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
		recordsPerForce: obs.NewHistogram(1, 2, 3, 5, 8, 13),
		// Sub-10 ms buckets resolve the adaptive controller's short
		// deadlines; the coarse tail still covers the fixed half-second
		// regime and idle stretches.
		forceInterval: obs.NewHistogram(obs.DurationBuckets(
			time.Millisecond, 2*time.Millisecond, 5*time.Millisecond,
			10*time.Millisecond, 25*time.Millisecond, 50*time.Millisecond,
			100*time.Millisecond, 250*time.Millisecond,
			500*time.Millisecond, time.Second, 2*time.Second,
			5*time.Second)...),
		diskOpTime: obs.NewHistogram(obs.DurationBuckets(
			5*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond,
			50*time.Millisecond, 100*time.Millisecond,
			200*time.Millisecond)...),
		lockWait: obs.NewHistogram(latencyBuckets...),
		applyLag: obs.NewHistogram(obs.DurationBuckets(
			time.Millisecond, 2*time.Millisecond, 5*time.Millisecond,
			10*time.Millisecond, 25*time.Millisecond, 50*time.Millisecond,
			100*time.Millisecond, 250*time.Millisecond,
			500*time.Millisecond, time.Second)...),
	}
	for _, name := range spanNames {
		o.spans[name] = &spanMetrics{lat: obs.NewHistogram(latencyBuckets...)}
	}
	return o
}

// span wraps one public Volume operation: it captures the sim-time start
// immediately and returns the closure to defer with the operation's error.
// Usage, with named error returns:
//
//	func (v *Volume) Open(...) (f *File, err error) {
//		defer v.span("open")(&err)
//
// The closure only reads atomics and the virtual clock — it never charges
// CPU or advances time, so wrapped and unwrapped operations take identical
// simulated time.
func (v *Volume) span(name string) func(*error) {
	start := v.clk.Now()
	return func(errp *error) { v.spanEnd(name, start, errp) }
}

// spanEnd is span without the closure, for the operations that must not
// allocate one:
//
//	defer v.spanEnd("read", v.clk.Now(), &err)
func (v *Volume) spanEnd(name string, start time.Duration, errp *error) {
	sm := v.obs.spans[name]
	d := v.clk.Now() - start
	sm.count.Inc()
	ok := *errp == nil
	if !ok {
		sm.errs.Inc()
	}
	sm.lat.ObserveDuration(d)
	if v.obs.tracer.Enabled() {
		v.obs.tracer.Emit(obs.Event{
			Time: v.clk.Now(), Kind: obs.EvOpSpan,
			Op: name, OK: ok, A: int64(d),
		})
	}
}

// traceCache emits a cache hit/miss event. Called under the cache lock, so
// it must stay allocation-free when tracing is off (one atomic load).
func (v *Volume) traceCache(hit bool, id uint32) {
	if v.obs == nil || !v.obs.tracer.Enabled() {
		return
	}
	kind := obs.EvCacheMiss
	if hit {
		kind = obs.EvCacheHit
	}
	v.obs.tracer.Emit(obs.Event{
		Time: v.clk.Now(), Kind: kind, OK: true, A: int64(id),
	})
}

// traceData emits a data-cache hit/miss event (A = first sector, B = count).
func (v *Volume) traceData(hit bool, addr, n int) {
	if v.obs == nil || !v.obs.tracer.Enabled() {
		return
	}
	kind := obs.EvDataMiss
	if hit {
		kind = obs.EvDataHit
	}
	v.obs.tracer.Emit(obs.Event{
		Time: v.clk.Now(), Kind: kind, OK: true, A: int64(addr), B: int64(n),
	})
}

// traceReadAhead emits a read-ahead event (A = first sector, B = extra
// sectors fetched beyond the demand read).
func (v *Volume) traceReadAhead(addr, extra int) {
	if v.obs == nil || !v.obs.tracer.Enabled() {
		return
	}
	v.obs.tracer.Emit(obs.Event{
		Time: v.clk.Now(), Kind: obs.EvReadAhead, OK: true,
		A: int64(addr), B: int64(extra),
	})
}

// traceCoalesce emits a clustered-transfer event (Op = "read"/"write",
// A = first sector, B = sectors, C = run boundaries crossed).
func (v *Volume) traceCoalesce(op string, addr, n, merged int) {
	if v.obs == nil || !v.obs.tracer.Enabled() {
		return
	}
	v.obs.tracer.Emit(obs.Event{
		Time: v.clk.Now(), Kind: obs.EvCoalesce, Op: op, OK: true,
		A: int64(addr), B: int64(n), C: int64(merged),
	})
}

// traceScrub emits a scrub/repair action event.
func (v *Volume) traceScrub(action string, n int) {
	if v.obs == nil || !v.obs.tracer.Enabled() {
		return
	}
	v.obs.tracer.Emit(obs.Event{
		Time: v.clk.Now(), Kind: obs.EvScrub, Op: action, OK: true,
		A: int64(n),
	})
}

// observeDiskOp is the disk's per-op observer. It runs under the device
// mutex, so it touches only the histogram atomics, the trace ring, and —
// for ops past the deadline — the health FSM's lock-free paths.
func (v *Volume) observeDiskOp(e disk.OpEvent) {
	total := e.Elapsed()
	v.obs.diskOpTime.ObserveDuration(total)
	dir := 0
	if e.Write {
		dir = 1
	}
	v.obs.regions[v.lay.region(e.Addr)][dir].add(e)
	// The per-op I/O deadline: an operation that held the device this
	// long (a hung-I/O stall, on this simulated drive) is classified as a
	// fault instead of silently delaying the commit pipeline. A
	// legitimate op is bounded by a demand transfer plus a stream window
	// (MaxTransferSectors + streamWindow sectors, under 100 ms of
	// transfer) and never comes close to the 1 s deadline.
	if total >= opTimeout {
		v.noteHungOp(total)
	}
	if v.obs.tracer.Enabled() {
		op := e.Class.String() + "-read"
		if e.Write {
			op = e.Class.String() + "-write"
		}
		v.obs.tracer.Emit(obs.Event{
			Time: v.clk.Now(), Kind: obs.EvDiskOp, Op: op, OK: e.OK,
			A: int64(e.Sectors), B: int64(e.Seek), C: int64(e.Rot),
			D: int64(e.Transfer),
		})
	}
}

// observeForce is the WAL's group-commit observer.
func (v *Volume) observeForce(e wal.ForceEvent) {
	v.obs.batchImages.Observe(int64(e.Images))
	v.obs.recordsPerForce.Observe(int64(e.Records))
	v.obs.forceInterval.ObserveDuration(e.Interval)
	if v.obs.tracer.Enabled() {
		v.obs.tracer.Emit(obs.Event{
			Time: v.clk.Now(), Kind: obs.EvWALForce, OK: true,
			A: int64(e.Images), B: int64(e.Records),
			C: int64(e.Sectors), D: int64(e.Interval),
		})
	}
}

// Stats returns the full counter snapshot. This is the one way to read
// volume counters; the legacy Ops, CacheStats, and FaultStats accessors
// were removed in favour of it.
func (v *Volume) Stats() Stats {
	s := Stats{
		Ops:          v.opsSnapshot(),
		Cache:        v.cacheStats(),
		Alloc:        v.allocStats(),
		Disk:         v.d.Stats(),
		Faults:       v.faultStats(),
		Health:       v.Health(),
		HealthReason: v.HealthReason(),
		Recovery:     v.recovery,
		DiskOpTime:   v.obs.diskOpTime.Snapshot(),
		LockWait:     v.obs.lockWait.Snapshot(),
		Spans:        make(map[string]SpanStats),
	}
	if v.log != nil {
		ws := v.log.Stats() // takes the WAL stat lock, never held across I/O
		s.Commit = CommitStats{
			Forces:           ws.Forces,
			Records:          ws.Records,
			ImagesStaged:     ws.ImagesStaged,
			ImagesLogged:     ws.ImagesLogged,
			ImagesElided:     ws.ImagesElided,
			SectorsWritten:   ws.SectorsWritten,
			MinRecordSectors: ws.MinRecordSectors,
			MaxRecordSectors: ws.MaxRecordSectors,
			ThirdCrossings:   ws.ThirdCrossings,
			HomeFlushes:      ws.HomeFlushes,
			BatchImages:      v.obs.batchImages.Snapshot(),
			RecordsPerForce:  v.obs.recordsPerForce.Snapshot(),
			ForceInterval:    v.obs.forceInterval.Snapshot(),
		}
		if ws.ImagesLogged > 0 {
			s.Commit.BatchingFactor = float64(ws.ImagesStaged) / float64(ws.ImagesLogged)
		}
		s.Commit.Adaptive = v.log.Adaptive()
		s.Commit.ForceDeadline = v.log.Deadline()
	}
	if v.q != nil {
		s.Intent = IntentStats{
			Enabled:     true,
			Depth:       v.q.Depth(),
			MaxDepth:    v.q.MaxDepthSeen(),
			Enqueued:    v.q.Enqueued(),
			Applied:     v.q.Applied(),
			ReaderWaits: v.q.ReaderWaits(),
			ApplyLag:    v.obs.applyLag.Snapshot(),
			ApplierBusy: v.apCPU.Busy(),
		}
	}
	for i, name := range diskRegionNames {
		r := &v.obs.regions[i]
		s.DiskRegions = append(s.DiskRegions, DiskRegionStats{
			Region: name, Read: r[0].snapshot(), Write: r[1].snapshot(),
		})
	}
	for name, sm := range v.obs.spans {
		if c := sm.count.Load(); c > 0 {
			s.Spans[name] = SpanStats{
				Count:   c,
				Errors:  sm.errs.Load(),
				Latency: sm.lat.Snapshot(),
			}
		}
	}
	return s
}

// cacheStats assembles the combined name-table + data cache counters.
func (v *Volume) cacheStats() CacheStats {
	cs := v.cache.stats()
	if v.dataCache != nil {
		bs := v.dataCache.Stats()
		cs.Data = DataCacheStats{
			Hits:             int(bs.Hits),
			Misses:           int(bs.Misses),
			ReadAheadSectors: int(bs.ReadAheadSectors),
			CoalescedReads:   int(bs.CoalescedReads),
			CoalescedWrites:  int(bs.CoalescedWrites),
			Invalidated:      int(bs.Invalidated),
			Evicted:          int(bs.Evicted),
			Size:             bs.Size,
			Capacity:         bs.Capacity,
			ReadAheadUsed:    int(bs.ReadAheadUsed),
			ReadAheadWasted:  int(bs.ReadAheadWasted),
			Promotions:       int(bs.Promotions),
		}
	}
	return cs
}

// allocStats reads the allocator's placement counters; a read-only mount
// has no allocator.
func (v *Volume) allocStats() AllocStats {
	if v.al == nil {
		return AllocStats{}
	}
	return v.al.Stats()
}

// SpanNames returns the instrumented operation names in a stable order.
func SpanNames() []string {
	out := append([]string(nil), spanNames...)
	sort.Strings(out)
	return out
}

// TraceTo enables event tracing and streams every event to sink as it is
// emitted (in addition to the in-memory ring). A nil sink disables tracing.
// The sink runs on the emitting goroutine, often under internal locks: it
// must be fast and must never call back into the volume.
func (v *Volume) TraceTo(sink obs.Sink) {
	if sink == nil {
		v.obs.tracer.Disable()
		v.obs.tracer.SetSink(nil)
		return
	}
	v.obs.tracer.SetSink(sink)
	v.obs.tracer.Enable()
}

// TraceEvents returns the buffered trace events, oldest first. Tracing must
// have been enabled via TraceTo (or EnableTrace) for events to accumulate.
func (v *Volume) TraceEvents() []obs.Event {
	return v.obs.tracer.Events()
}

// EnableTrace turns on event recording into the in-memory ring without a
// streaming sink.
func (v *Volume) EnableTrace() { v.obs.tracer.Enable() }
