package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	cedarfs "repro"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// runOpts is one invocation's request.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
	// tiny shrinks populations and op counts to smoke-test size.
	tiny bool
	// unbalanced is the smoke test's hook: ring creates go to fresh names
	// that nothing deletes, so the steady-state guard has something to trip on.
	unbalanced bool
}

// measuredRounds is how many equal-op rounds the measured part is split
// into; wall metrics are the median round. A traced invocation runs three
// more with recording off, interleaved, to price the tracing.
const measuredRounds = 5

// tracePattern says which rounds of a traced invocation record spans.
var tracePattern = []bool{true, false, true, true, false, true, false, true}

func roundPlan(traced bool) []bool {
	if traced {
		return tracePattern
	}
	return make([]bool, measuredRounds)
}

// pinned is the part of the volume configuration every workload shares:
// the worker-pool widths are fixed at 2 so sim-clock results never depend
// on the host's core count, the name table is sized for the populations
// used here, and no background scrub runs.
func pinned(cfg cedarfs.Config) cedarfs.Config {
	if cfg.NTPages == 0 {
		cfg.NTPages = 4096
	}
	cfg.CheckWorkers, cfg.ScrubWorkers, cfg.MountWorkers = 2, 2, 2
	cfg.ScrubInterval = 0
	return cfg
}

// newDisk returns a fresh simulated drive on its own virtual clock.
func newDisk(g disk.Geometry) (*disk.Disk, *sim.VirtualClock, error) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(g, disk.DefaultParams, clk)
	return d, clk, err
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// volSnap is a snapshot of everything read off the volume and its disk.
type volSnap struct {
	sim   time.Duration
	stats core.Stats
	cpu   time.Duration
}

func snapVolume(v *cedarfs.Volume, clk sim.Clock) volSnap {
	return volSnap{sim: clk.Now(), stats: v.Stats(), cpu: v.CPU().Busy()}
}

// roundResult is one round of one phase.
type roundResult struct {
	traced bool
	ops    int
	wall   time.Duration
	cpu    time.Duration // process user+system time over the round
	sim    time.Duration
	lat    []int64 // per-operation latency, nanoseconds
	kinds  []int   // operation kind histogram
}

func (r *roundResult) opsPerS() float64 { return float64(r.ops) / r.wall.Seconds() }

// runRounds drives clients closed-loop: in every round each client runs
// opsPerClient operations back to back on its own goroutine, and the round
// ends when the last one finishes. setTrace switches span recording for
// the round.
func runRounds(clients []loadClient, opsPerClient int, plan []bool, nKinds int, clk sim.Clock, setTrace func(bool)) []roundResult {
	out := make([]roundResult, len(plan))
	lats := make([][]int64, len(clients))
	for r, traced := range plan {
		setTrace(traced)
		kinds := make([][]int, len(clients))
		var wg sync.WaitGroup
		sim0 := clk.Now()
		cpu0, t0 := cpuTime(), time.Now()
		for ci, c := range clients {
			lats[ci] = make([]int64, opsPerClient)
			kinds[ci] = make([]int, nKinds)
			wg.Add(1)
			go func(c loadClient, lat []int64, kinds []int) {
				defer wg.Done()
				for i := range lat {
					s := time.Now()
					k := c.step()
					lat[i] = int64(time.Since(s))
					kinds[k]++
				}
			}(c, lats[ci], kinds[ci])
		}
		wg.Wait()
		res := roundResult{traced: traced, ops: opsPerClient * len(clients), wall: time.Since(t0), cpu: cpuTime() - cpu0,
			sim: clk.Now() - sim0, kinds: make([]int, nKinds)}
		for ci := range clients {
			res.lat = append(res.lat, lats[ci]...)
			for k, n := range kinds[ci] {
				res.kinds[k] += n
			}
		}
		out[r] = res
	}
	setTrace(false)
	return out
}

// pick returns the rounds that ran with recording on (traced) or off.
func pick(rs []roundResult, traced bool) []roundResult {
	var out []roundResult
	for _, r := range rs {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// roundMedians reduces rounds to the wall metrics: median-round throughput,
// median of per-round p50, median of per-round tail quantile, and process
// CPU time per operation over all of them.
func roundMedians(rs []roundResult, tailQ float64) (opsPerS, p50us, tailUs, cpuUs float64) {
	var tput, p50s, tails []float64
	var cpu time.Duration
	ops := 0
	for _, r := range rs {
		us := nsToUs(r.lat)
		tput = append(tput, r.opsPerS())
		p50s = append(p50s, quantile(us, 0.50))
		tails = append(tails, quantile(us, tailQ))
		cpu += r.cpu
		ops += r.ops
	}
	return median(tput), median(p50s), median(tails), float64(cpu) / 1e3 / float64(ops)
}

func roundRecords(phase string, rs []roundResult, tailQ float64) []roundRecord {
	var out []roundRecord
	for i, r := range rs {
		us := nsToUs(r.lat)
		out = append(out, roundRecord{Phase: phase, Round: i, Traced: r.traced, Ops: r.ops, WallS: r.wall.Seconds(),
			OpsPerS: r.opsPerS(), P50Us: quantile(us, 0.5), TailUs: quantile(us, tailQ), SimS: r.sim.Seconds(),
			TailRank: fmt.Sprintf("p%g of %d samples", tailQ*100, len(us))})
	}
	return out
}

// seriesNote prints a phase's per-round throughput, so drift inside a run
// is visible without the trace file.
func seriesNote(phase string, rs []roundResult) string {
	s := phase + " rounds, ops/s:"
	for _, r := range rs {
		s += fmt.Sprintf(" %.0f", r.opsPerS())
	}
	s += "; sim ms/op:"
	for _, r := range rs {
		s += fmt.Sprintf(" %.1f", r.sim.Seconds()*1e3/float64(r.ops))
	}
	return s
}

// overheadRatio is traced time per operation over untraced, from the
// interleaved rounds of a traced invocation; 1 when there is nothing to
// compare.
func overheadRatio(rs []roundResult) float64 {
	var on, off []float64
	for _, r := range rs {
		per := r.wall.Seconds() / float64(r.ops)
		if r.traced {
			on = append(on, per)
		} else {
			off = append(off, per)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 1
	}
	return median(on) / median(off)
}

// setupMedian runs build three times and reports the median wall time; the
// first two images are torn down, the last is returned for the run. A
// collection between builds keeps a dead image from counting toward the
// next build's time or the run's peak memory.
func setupMedian[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < 3; i++ {
		if i > 0 {
			teardown(last)
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		env, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = env
	}
	return last, median(times), nil
}

// counters is the subset of a volume's Stats the per-layer metrics are
// built from, in a form that can be subtracted and summed: check-repair
// goes through many mounted instances of one volume, each starting its
// counters from zero.
type counters struct {
	ntHits, ntMisses                        int
	data                                    core.DataCacheStats
	forces, staged, logged, elided, walSect int
	thirdCrossings                          int
	forceInterval, applyLag, lockWait       obs.HistSnapshot
	spans                                   map[string]obs.HistSnapshot
	maxDepth                                int
	readerWaits                             int64
	applierBusy                             time.Duration
}

func countersOf(s core.Stats) counters {
	c := counters{
		ntHits: s.Cache.Hits, ntMisses: s.Cache.Misses, data: s.Cache.Data,
		forces: s.Commit.Forces, staged: s.Commit.ImagesStaged, logged: s.Commit.ImagesLogged,
		elided: s.Commit.ImagesElided, walSect: s.Commit.SectorsWritten, thirdCrossings: s.Commit.ThirdCrossings,
		forceInterval: s.Commit.ForceInterval, applyLag: s.Intent.ApplyLag, lockWait: s.LockWait,
		spans:    map[string]obs.HistSnapshot{},
		maxDepth: s.Intent.MaxDepth, readerWaits: s.Intent.ReaderWaits, applierBusy: s.Intent.ApplierBusy,
	}
	for name, sp := range s.Spans {
		c.spans[name] = sp.Latency
	}
	return c
}

// addHist returns a + sign*b bucket by bucket.
func addHist(a, b obs.HistSnapshot, sign int64) obs.HistSnapshot {
	if len(a.Counts) == 0 {
		a.Bounds, a.Counts = b.Bounds, make([]int64, len(b.Counts))
	} else {
		a.Counts = append([]int64(nil), a.Counts...)
	}
	for i := range b.Counts {
		a.Counts[i] += sign * b.Counts[i]
	}
	a.Count += sign * b.Count
	a.Sum += sign * b.Sum
	if b.Max > a.Max {
		a.Max = b.Max
	}
	return a
}

// combine returns c + sign*o.
func (c counters) combine(o counters, sign int) counters {
	s64 := int64(sign)
	c.ntHits += sign * o.ntHits
	c.ntMisses += sign * o.ntMisses
	c.data.Hits += sign * o.data.Hits
	c.data.Misses += sign * o.data.Misses
	c.data.Evicted += sign * o.data.Evicted
	c.data.ReadAheadSectors += sign * o.data.ReadAheadSectors
	c.data.CoalescedReads += sign * o.data.CoalescedReads
	c.forces += sign * o.forces
	c.staged += sign * o.staged
	c.logged += sign * o.logged
	c.elided += sign * o.elided
	c.walSect += sign * o.walSect
	c.thirdCrossings += sign * o.thirdCrossings
	c.forceInterval = addHist(c.forceInterval, o.forceInterval, s64)
	c.applyLag = addHist(c.applyLag, o.applyLag, s64)
	c.lockWait = addHist(c.lockWait, o.lockWait, s64)
	spans := map[string]obs.HistSnapshot{}
	for name, h := range c.spans {
		spans[name] = h
	}
	for name, h := range o.spans {
		spans[name] = addHist(spans[name], h, s64)
	}
	c.spans = spans
	if o.maxDepth > c.maxDepth {
		c.maxDepth = o.maxDepth
	}
	c.readerWaits += s64 * o.readerWaits
	c.applierBusy += time.Duration(sign) * o.applierBusy
	return c
}

// window is what happened between two points of a run.
type window struct {
	sim  time.Duration // virtual-clock advance
	cpu  time.Duration // simulated CPU busy
	disk disk.Stats
	c    counters
}

// between is the window from snapshot a to snapshot b of one mounted volume.
func between(a, b volSnap) window {
	return window{sim: b.sim - a.sim, cpu: b.cpu - a.cpu, disk: b.stats.Disk.Sub(a.stats.Disk),
		c: countersOf(b.stats).combine(countersOf(a.stats), -1)}
}

// layerDeltas fills the per-layer metrics that are counter deltas over w.
func layerDeltas(r results, w window, ops int) {
	n := float64(ops)
	simNs := float64(w.sim)
	ds := w.disk
	r.set("disk.reads_per_op", float64(ds.Reads)/n)
	r.set("disk.writes_per_op", float64(ds.Writes)/n)
	r.set("disk.sectors_read_per_op", float64(ds.SectorsRead)/n)
	r.set("disk.sectors_written_per_op", float64(ds.SectorsWritten)/n)
	r.set("disk.seeks_per_op", float64(ds.Seeks)/n)
	r.set("disk.lost_revs_per_op", float64(ds.LostRevs)/n)
	r.set("disk.mergeable_per_op", float64(ds.MergeableOps)/n)
	r.set("disk.busy_share", ratio(float64(ds.BusyTime()), simNs))
	r.set("sim.cpu_share", ratio(float64(w.cpu), simNs))

	c := w.c
	for _, op := range []string{"create", "open", "stat", "delete", "list", "read", "write", "force"} {
		r.set("core."+op+"_sim_ms", c.spans[op].Mean()/1e6)
	}
	r.set("core.lockwait_sim_ms", c.lockWait.Mean()/1e6)
	r.set("core.ntcache_hit_ratio", ratio(float64(c.ntHits), float64(c.ntHits+c.ntMisses)))

	r.set("bufcache.hit_ratio", ratio(float64(c.data.Hits), float64(c.data.Hits+c.data.Misses)))
	r.set("bufcache.evicted_per_kop", float64(c.data.Evicted)/n*1e3)
	r.set("bufcache.readahead_sectors_per_op", float64(c.data.ReadAheadSectors)/n)
	r.set("bufcache.coalesced_reads_per_kop", float64(c.data.CoalescedReads)/n*1e3)

	r.set("wal.forces_per_kop", float64(c.forces)/n*1e3)
	r.set("wal.batching_factor", ratio(float64(c.staged), float64(c.logged)))
	r.set("wal.elided_ratio", ratio(float64(c.elided), float64(c.staged)))
	r.set("wal.sectors_per_force", ratio(float64(c.walSect), float64(c.forces)))
	r.set("wal.force_interval_p50_sim_ms", float64(c.forceInterval.Quantile(0.5))/1e6)
	r.set("wal.third_crossings", float64(c.thirdCrossings))

	r.set("intentq.max_depth", float64(c.maxDepth))
	r.set("intentq.reader_waits_per_kop", float64(c.readerWaits)/n*1e3)
	r.set("intentq.apply_lag_p50_sim_ms", float64(c.applyLag.Quantile(0.5))/1e6)
	r.set("intentq.applier_busy_share", ratio(float64(c.applierBusy), simNs))
}

// costMetrics fills the end-to-end metrics that come from the virtual
// clock and the disk counters over the measured part.
func costMetrics(r results, w window, ops int, userBytes int64) {
	r.set("sim_ms_per_op", float64(w.sim)/1e6/float64(ops))
	r.set("disk_ios_per_op", float64(w.disk.Reads+w.disk.Writes)/float64(ops))
	r.set("write_amp", ratio(float64(w.disk.SectorsWritten)*disk.SectorSize, float64(userBytes)))
}

// wallMetrics sets the wall-clock metrics, as measured, and repeats them in
// a note: an untraced run's table holds only the gated ones.
func wallMetrics(o *outcome, setupS, opsPerS, p50us, tailUs, cpuUs float64) {
	m := o.Metrics
	m.set("setup_s", setupS)
	m.set("wall_ops_per_s", opsPerS)
	m.set("wall_p50_us", p50us)
	m.set("wall_tail_us", tailUs)
	m.set("cpu_us_per_op", cpuUs)
	o.Notes = append(o.Notes, fmt.Sprintf("wall clock, recording off: setup %.4f s, %.1f ops/s, p50 %.2f us, tail %.2f us, cpu %.2f us/op",
		setupS, opsPerS, p50us, tailUs, cpuUs))
}

// closingMetrics sets the two end-to-end metrics known only once the end
// checks have run.
func closingMetrics(o *outcome) {
	o.Metrics.set("rss_peak_mb", rssPeakMB())
	o.Metrics.set("ok_ratio", float64(o.Attempted-o.Failed)/float64(o.Attempted))
}

// processMetrics fills the allocation and GC metrics from the runtime's
// counters before and after ops operations.
func processMetrics(r results, a, b runtime.MemStats, ops int) {
	n := float64(ops)
	r.set("alloc_kb_per_op", float64(b.TotalAlloc-a.TotalAlloc)/1024/n)
	r.set("go.allocs_per_op", float64(b.Mallocs-a.Mallocs)/n)
	r.set("go.gc_cycles_per_kop", float64(b.NumGC-a.NumGC)/n*1e3)
	r.set("go.gc_pause_total_ms", float64(b.PauseTotalNs-a.PauseTotalNs)/1e6)
}
