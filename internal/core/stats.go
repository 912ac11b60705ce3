package core

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/bufcache"
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

// DataCacheStats counts file-data buffer cache activity; see bufcache.Stats.
type DataCacheStats = bufcache.Stats

// AllocStats counts how the growth of files was placed; see alloc.Stats.
type AllocStats = alloc.Stats

// CommitStats reports group-commit activity: the WAL counters plus the
// batching distributions measured by the observability layer. The paper's
// Table 3 ("reduction in file operations") is BatchingFactor on a metadata
// hot-spot workload.
type CommitStats struct {
	wal.Stats
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
	// HeldSectors and HeldRequests count what the forces' passes over held
	// writes (DESIGN §12, "Held writes") wrote: sectors, and the requests
	// they went in. HeldWriteThrough counts the writes to fresh pages that
	// went out at once because the data cache's hold cap was reached.
	HeldSectors      int
	HeldRequests     int
	HeldWriteThrough int
	// HeldPasses counts the passes that wrote a request, and HeldCylinders
	// the cylinders they visited: each pass seeks once per cylinder.
	// GroupCreates counts the creates a commit group's placement put on its
	// cylinder in head order (DESIGN §3.5), AllocCreates those Alloc placed
	// because the group rule does not apply (the raw path, an empty create,
	// a big one, the edge layout). NoRoomCreates and FullCylinderCreates
	// count the creates the rule applied to that still fell to Alloc: no
	// cylinder above the floor had room for the group's anchor, or the
	// group's cylinder had no hole after its last create.
	HeldPasses          int
	HeldCylinders       int
	GroupCreates        int
	AllocCreates        int
	NoRoomCreates       int
	FullCylinderCreates int
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
	// Recovery is what the mount returned: the log replay (torn records,
	// discarded tails, gap breaks), the redo and the scan. Zero on a volume
	// Format or Salvage brought up.
	Recovery MountStats
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

	// applyLag is the async metadata pipeline's enqueue-to-apply latency
	// distribution. Present on every volume (empty on synchronous ones) so
	// the hook needs no nil check.
	applyLag *obs.Histogram

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
	v.trace(obs.Event{Kind: obs.EvOpSpan, Op: name, OK: ok, A: int64(d)})
}

// trace emits e, stamped with the sim time now, if tracing is on. It is the
// one place core emits an event (noteRecovery's Record aside, which records
// with tracing off): a site builds e from values it has at hand, so with
// tracing off it costs one atomic load and allocates nothing — several sites
// run under the cache or device locks.
func (v *Volume) trace(e obs.Event) {
	if v.obs.tracer.Enabled() {
		e.Time = v.clk.Now()
		v.obs.tracer.Emit(e)
	}
}

// diskOpNames names a disk op in the trace by its class and direction
// (0 read, 1 write).
var diskOpNames = [...][2]string{
	disk.ClassData: {"data-read", "data-write"},
	disk.ClassMeta: {"meta-read", "meta-write"},
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
	v.trace(obs.Event{
		Kind: obs.EvDiskOp, Op: diskOpNames[e.Class][dir], OK: e.OK,
		A: int64(e.Sectors), B: int64(e.Seek), C: int64(e.Rot), D: int64(e.Transfer),
	})
}

// observeForce is the WAL's group-commit observer.
func (v *Volume) observeForce(e wal.ForceEvent) {
	v.obs.batchImages.Observe(int64(e.Images))
	v.obs.recordsPerForce.Observe(int64(e.Records))
	v.obs.forceInterval.ObserveDuration(e.Interval)
	v.trace(obs.Event{
		Kind: obs.EvWALForce, OK: true,
		A: int64(e.Images), B: int64(e.Records), C: int64(e.Sectors), D: int64(e.Interval),
	})
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
			Stats:               ws,
			BatchImages:         v.obs.batchImages.Snapshot(),
			RecordsPerForce:     v.obs.recordsPerForce.Snapshot(),
			ForceInterval:       v.obs.forceInterval.Snapshot(),
			HeldSectors:         int(v.heldStats.sectors.Load()),
			HeldRequests:        int(v.heldStats.requests.Load()),
			HeldWriteThrough:    int(v.heldStats.writeThrough.Load()),
			HeldPasses:          int(v.heldStats.passes.Load()),
			HeldCylinders:       int(v.heldStats.cylinders.Load()),
			GroupCreates:        int(v.heldStats.grouped.Load()),
			AllocCreates:        int(v.heldStats.allocated.Load()),
			NoRoomCreates:       int(v.heldStats.noRoom.Load()),
			FullCylinderCreates: int(v.heldStats.fullCyl.Load()),
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
		cs.Data = v.dataCache.Stats()
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
