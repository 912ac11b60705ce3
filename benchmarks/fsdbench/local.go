package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"time"

	cedarfs "repro"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The two local workloads drive a volume with no transport, on one
// goroutine. There is no wall-clock timer anywhere in the volume, so their
// sim-clock and count metrics repeat for a given seed to within a fraction
// of a percent; what is left is the volume's own: its flush paths walk Go
// maps, so home writes go out in a different order on every run.

const (
	tCreate = iota
	tRead
	tDelete
	tList
	tTouch
	numTargetOps
)

var targetOpNames = []string{"create", "read", "delete", "list", "touch"}

// timedTarget wraps workload.FSDTarget: it times each Target call (the
// call only — the model bookkeeping and payload checks around it are
// outside the timer) and checks every result against the model.
type timedTarget struct {
	clientStats
	inner    workload.FSDTarget
	dirCount map[string]int // live versions per directory, for List
	lat      []int64
	kinds    [numTargetOps]int
	sink     *spanSink // nil unless tracing
	quiet    bool      // set-up: keep the model, skip latency samples
}

func newTimedTarget(v *cedarfs.Volume) *timedTarget {
	t := &timedTarget{inner: workload.FSDTarget{V: v}, dirCount: map[string]int{}}
	t.m = newModel()
	return t
}

func dirOf(name string) string { return name[:strings.LastIndexByte(name, '/')+1] }

func (t *timedTarget) timed(kind int, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if t.sink != nil && t.sink.on.Load() {
		t.sink.add(callKind(kind), t0, d, 0)
	}
	if !t.quiet {
		t.lat = append(t.lat, int64(d))
		t.kinds[kind]++
	}
	return err
}

func (t *timedTarget) Create(name string, data []byte) error {
	err := t.timed(tCreate, func() error { return t.inner.Create(name, data) })
	if err != nil {
		t.fail("create %s: %v", name, err)
		return nil // the generators stop at the first error; count it and go on
	}
	before := len(t.m.files[name])
	t.m.create(name, len(data), crc32.ChecksumIEEE(data))
	t.dirCount[dirOf(name)] += len(t.m.files[name]) - before
	t.userBytes += int64(len(data) + len(name))
	return nil
}

func (t *timedTarget) Read(name string) ([]byte, error) {
	var data []byte
	err := t.timed(tRead, func() (err error) { data, err = t.inner.Read(name); return })
	want := t.m.files[name].newest()
	switch {
	case err != nil:
		t.fail("read %s: %v", name, err)
	case want == nil || len(data) != want.size || crc32.ChecksumIEEE(data) != want.crc:
		t.fail("read %s: payload mismatch", name)
	}
	return data, nil
}

func (t *timedTarget) Delete(name string) error {
	if err := t.timed(tDelete, func() error { return t.inner.Delete(name) }); err != nil {
		t.fail("delete %s: %v", name, err)
		return nil
	}
	if t.m.del(name) {
		t.dirCount[dirOf(name)]--
	}
	t.userBytes += int64(len(name))
	return nil
}

func (t *timedTarget) List(prefix string) (int, error) {
	var n int
	err := t.timed(tList, func() (err error) { n, err = t.inner.List(prefix); return })
	if err != nil {
		t.fail("list %s: %v", prefix, err)
	} else if want := t.dirCount[prefix]; n != want {
		t.fail("list %s: %d entries, want %d", prefix, n, want)
	}
	return n, nil
}

func (t *timedTarget) Touch(name string) error {
	if err := t.timed(tTouch, func() error { return t.inner.Touch(name) }); err != nil {
		t.fail("touch %s: %v", name, err)
	}
	return nil
}

// setKeep is set-up only: the Target interface has no keep.
func (t *timedTarget) setKeep(name string, keep uint16) error {
	if err := t.inner.V.SetKeep(name, keep); err != nil {
		return err
	}
	t.m.setKeep(name, keep)
	return nil
}

// takeRound returns the latencies and kinds recorded since the last call.
func (t *timedTarget) takeRound() ([]int64, []int) {
	lat, kinds := t.lat, append([]int(nil), t.kinds[:]...)
	t.lat, t.kinds = nil, [numTargetOps]int{}
	return lat, kinds
}

// --- paper-mix ---

// paperGroupsPerSec is the frozen size of paper-mix: groups of four cycles
// (the fourth carrying a MakeDo) per round, per --seconds second.
const paperGroupsPerSec = 2

type localEnv struct {
	cfg  cedarfs.Config
	d    *disk.Disk
	clk  *sim.VirtualClock
	vol  *cedarfs.Volume
	t    *timedTarget
	mut  *metaClient // check-repair's between-crash traffic
	tail *metaClient
	rng  *rand.Rand
	sink *spanSink
}

func (e *localEnv) close() { e.vol.Crash() }

func (e *localEnv) models() *model {
	if e.mut != nil {
		return merged(e.t.m, e.mut.m)
	}
	return e.t.m
}

func (e *localEnv) setTrace(on bool) {
	if e.sink != nil {
		e.sink.on.Store(on)
	}
}

// paperCycle is one cycle of the paper's evaluation; every fourth carries
// the MakeDo build.
func paperCycle(e *localEnv, o runOpts, cycle int) {
	dir := fmt.Sprintf("pm/s%d-c%d", o.seed, cycle%8)
	files := 100
	bulk, makedo := workload.DefaultBulkUpdate, workload.DefaultMakeDo
	if o.tiny {
		files, makedo.Modules = 20, 6
	}
	workload.SmallCreates(e.t, dir, files, 500)
	workload.ListDir(e.t, dir)
	workload.ReadFiles(e.t, dir, files)
	workload.BulkUpdateRun(e.t, bulk)
	workload.DeleteFiles(e.t, dir, files)
	if cycle%4 == 3 {
		workload.MakeDoRun(e.t, makedo, e.rng)
	}
}

func buildLocal(o runOpts, cfg cedarfs.Config, geom disk.Geometry, populate func(e *localEnv) error) (*localEnv, error) {
	e := &localEnv{cfg: cfg, rng: rand.New(rand.NewSource(o.seed))}
	var err error
	if e.d, e.clk, err = newDisk(geom); err != nil {
		return nil, err
	}
	vol, err := cedarfs.Format(e.d, cfg)
	if err != nil {
		return nil, err
	}
	e.t = newTimedTarget(vol)
	e.t.quiet = true
	e.vol = vol
	if err := populate(e); err != nil {
		return nil, err
	}
	pool := newPool(o.seed, 1<<20)
	e.tail = newTail(o.seed, pool, o.tiny, cfg.AsyncApply)
	e.tail.attach(vol)
	e.tail.populate()
	for _, s := range []*clientStats{&e.t.clientStats, &e.tail.clientStats} {
		if s.failed > 0 {
			return nil, fmt.Errorf("populate: %v", s.problems)
		}
	}
	if err := vol.Force(); err != nil {
		return nil, err
	}
	if err := vol.Shutdown(); err != nil {
		return nil, err
	}
	if e.vol, _, err = cedarfs.Mount(e.d, cfg); err != nil {
		return nil, err
	}
	e.t.inner.V = e.vol
	if o.traced {
		e.sink = newSink("target", time.Now())
		e.t.sink = e.sink
	}
	return e, nil
}

func runPaperMix(o runOpts) (*outcome, error) {
	out := &outcome{Workload: o.workload, Metrics: results{}}
	// The paper's design point: staged updates, half-second group commit,
	// no data cache.
	cfg := pinned(cedarfs.Config{DataCachePages: -1})
	fill := int64(80 << 20)
	if o.tiny {
		fill = 2 << 20
	}
	e, setupS, err := setupMedian(func() (*localEnv, error) {
		e, err := buildLocal(o, cfg, disk.DefaultGeometry, func(e *localEnv) error {
			// A moderately full volume, as the paper's measurements had.
			if _, err := workload.PopulateVolume(e.t, e.rng, fill, 256<<10); err != nil {
				return err
			}
			makedo := workload.DefaultMakeDo
			if o.tiny {
				makedo.Modules = 6
			}
			if err := workload.MakeDoPrepare(e.t, makedo); err != nil {
				return err
			}
			if err := workload.BulkUpdatePrepare(e.t, workload.DefaultBulkUpdate); err != nil {
				return err
			}
			// Bulk updates re-create a fifth of the files every round;
			// keep=2 bounds the versions so the live set is stationary.
			for i := 0; i < workload.DefaultBulkUpdate.Files; i++ {
				if err := e.t.setKeep(fmt.Sprintf("pkg/m%03d", i), 2); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for c := 0; c < 16; c++ { // warm-up: four groups
			paperCycle(e, o, c)
		}
		e.t.quiet = false
		e.t.userBytes = 0
		return e, nil
	}, (*localEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { e.close() }()

	groups := paperGroupsPerSec * o.seconds
	if o.tiny || groups < 1 {
		groups = 1
	}
	liveStart := len(e.t.m.files)
	runtime.GC()
	snap0, mem0 := snapVolume(e.vol, e.clk), memStats()
	var rounds []roundResult
	cycle := 16
	for _, traced := range roundPlan(o.traced) {
		e.setTrace(traced)
		sim0, cpu0, t0 := e.clk.Now(), cpuTime(), time.Now()
		for g := 0; g < groups*4; g++ {
			paperCycle(e, o, cycle)
			cycle++
		}
		r := roundResult{traced: traced, wall: time.Since(t0), cpu: cpuTime() - cpu0, sim: e.clk.Now() - sim0}
		r.lat, r.kinds = e.t.takeRound()
		r.ops = len(r.lat)
		rounds = append(rounds, r)
	}
	e.setTrace(false)
	snap1, mem1 := snapVolume(e.vol, e.clk), memStats()
	w := between(snap0, snap1)
	ops := 0
	for _, r := range rounds {
		ops += r.ops
	}
	out.Attempted = ops

	m := out.Metrics
	tput, p50, tail, cpuUs := roundMedians(pick(rounds, false), 0.99)
	wallMetrics(out, setupS, tput, p50, tail, cpuUs)
	processMetrics(m, mem0, mem1, ops)
	costMetrics(m, w, ops, e.t.userBytes)
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d rounds x %d groups of 4 cycles, one goroutine; an op is one Target call; tail is p99 of %d samples per round",
			len(rounds), groups, rounds[0].ops),
		seriesNote("measured", rounds), "mix: "+kindsLine(targetOpNames, rounds))

	guardLive(out, liveStart, len(e.t.m.files))
	collect(out, &e.t.clientStats)
	v2, err := finish(out, e.vol, e.d, e.cfg, cedarfs.NewLocalFS(e.vol), e.tail, e.models)
	if err != nil {
		return nil, err
	}
	e.vol = v2
	closingMetrics(out)

	if o.traced {
		layerDeltas(m, w, ops)
		tr := pick(rounds, true)
		m.set("core.round_drift_ratio", tr[len(tr)-1].opsPerS()/tr[0].opsPerS())
		m.set("trace.overhead_ratio", overheadRatio(rounds))
		runProbes(m, probeInput{vol: v2, keys: modelKeys(e.models()), tiny: o.tiny})
		tf := &traceFile{Workload: o.workload, Seed: o.seed, Rounds: roundRecords("measured", rounds, 0.99), Metrics: m, Notes: out.Notes}
		ks := e.sink.byKind()
		for k, name := range targetOpNames {
			tf.Summary = append(tf.Summary, layerSummary{"target", name, ks[k].count, ks[k].meanUs, "wall"})
		}
		for _, op := range []string{"create", "open", "read", "delete", "list", "touch", "write", "force"} {
			if h, ok := w.c.spans[op]; ok {
				tf.Summary = append(tf.Summary, layerSummary{"core", op, int(h.Count), h.Mean() / 1e3, "sim"})
			}
		}
		if out.TraceFile, err = writeTrace(o.outDir, tf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- check-repair ---

const (
	crMutations = 500 // unforced operations between crashes
	// crGroupsPer15s is the frozen size of check-repair: groups of four
	// cycles (the fourth ending in a salvage) per round, per 15 --seconds.
	crGroupsPer15s = 4
)

const (
	pMount = iota
	pVerify
	pScrub
	pSalvage
	numPasses
)

var passNames = []string{"mount", "verify", "scrub", "salvage"}

// checkRepair is the state of one check-repair run. The volume goes
// through many mounted instances (every crash ends one), each starting its
// counters from zero, so the run keeps its own totals.
type checkRepair struct {
	*localEnv
	out       *outcome
	mutations int
	cycle     int
	mutOps    int

	lat      []int64              // pass wall times of the current round
	passWall [numPasses][]float64 // ms
	passSim  [numPasses][]float64 // s
	steals   int

	acc     counters      // volume counters of retired instances
	accCPU  time.Duration // simulated CPU of retired instances
	diskAcc disk.Stats    // disk counters of retired disks
	disk0   disk.Stats    // the current disk's counters when the window opened
	from    *volSnap      // the current instance's counters when the window opened; nil = zero
}

// openWindow starts the measured part: everything before it (set-up and
// the warm-up group) is left out of the totals.
func (r *checkRepair) openWindow() {
	first := snapVolume(r.vol, r.clk)
	*r = checkRepair{localEnv: r.localEnv, out: r.out, mutations: r.mutations, cycle: r.cycle,
		disk0: r.d.Stats(), from: &first}
	r.mut.userBytes = 0
}

// retire folds a volume instance's counters into the totals just before
// the instance dies.
func (r *checkRepair) retire(v *cedarfs.Volume) {
	s := snapVolume(v, r.clk)
	c := countersOf(s.stats)
	if r.from != nil {
		c = c.combine(countersOf(r.from.stats), -1)
		r.accCPU -= r.from.cpu
		r.from = nil
	}
	r.acc = r.acc.combine(c, 1)
	r.accCPU += s.cpu
}

func (r *checkRepair) record(kind int, wall, simD time.Duration) {
	r.lat = append(r.lat, int64(wall))
	r.passWall[kind] = append(r.passWall[kind], float64(wall)/1e6)
	r.passSim[kind] = append(r.passSim[kind], simD.Seconds())
}

func (r *checkRepair) timePass(kind int, f func() (time.Duration, error)) error {
	t0 := time.Now()
	simD, err := f()
	r.record(kind, time.Since(t0), simD)
	return err
}

func (r *checkRepair) verify(v *cedarfs.Volume, stage string) error {
	return r.timePass(pVerify, func() (time.Duration, error) {
		vs, err := v.Verify()
		for _, p := range vs.Problems {
			r.out.problem("cycle %d %s: %s", r.cycle, stage, p)
		}
		r.steals += vs.Steals
		return vs.Elapsed, err
	})
}

// runCycle is one cycle: unforced mutations, the plug pulled, then the
// mount that replays the log and rebuilds the allocation map (only the
// mount is the pass; the mutations are its input), a full Verify and a
// Scrub. Every fourth cycle goes on to lose both name-table copies and the
// log and to rebuild the volume from its leader pages.
func (r *checkRepair) runCycle() error {
	r.cycle++
	v2, rep, mountWall, err := crashCycle(r.out, r.vol, r.d, r.cfg, r.mut, r.mutations, fmt.Sprintf("cycle %d", r.cycle), r.retire)
	if err != nil {
		return err
	}
	r.mutOps += r.mutations
	r.vol, r.t.inner.V = v2, v2
	r.record(pMount, mountWall, rep.Elapsed)
	if err := r.verify(r.vol, "verify"); err != nil {
		return fmt.Errorf("cycle %d verify: %w", r.cycle, err)
	}
	if err := r.timePass(pScrub, func() (time.Duration, error) {
		ss, err := r.vol.Scrub()
		for _, p := range ss.Problems {
			r.out.problem("cycle %d scrub: %s", r.cycle, p)
		}
		return ss.Elapsed, err
	}); err != nil {
		return fmt.Errorf("cycle %d scrub: %w", r.cycle, err)
	}
	if r.cycle%4 != 0 {
		return nil
	}

	// Salvage brings back what leaders record — deleted versions return,
	// renames and keeps are lost — so it runs on the real disk, and the
	// run then carries on from a copy taken just before the destruction.
	r.retire(r.vol)
	if err := r.vol.Shutdown(); err != nil {
		return fmt.Errorf("cycle %d shutdown: %w", r.cycle, err)
	}
	keptClk := sim.NewVirtualClock()
	kept := r.d.Clone(keptClk)
	r.vol.DestroyNameTable()
	var sv *cedarfs.Volume
	if err := r.timePass(pSalvage, func() (time.Duration, error) {
		v, ss, err := cedarfs.Salvage(r.d, r.cfg)
		if err != nil {
			return 0, err
		}
		sv = v
		r.steals += ss.Steals
		if want := versions(r.models()) + versions(r.tail.m); ss.FilesRecovered < want {
			r.out.problem("cycle %d salvage: recovered %d files, %d are live", r.cycle, ss.FilesRecovered, want)
		}
		return ss.Elapsed, nil
	}); err != nil {
		return fmt.Errorf("cycle %d salvage: %w", r.cycle, err)
	}
	if err := r.verify(sv, "verify after salvage"); err != nil {
		return fmt.Errorf("cycle %d verify after salvage: %w", r.cycle, err)
	}
	checkSalvaged(r.out, sv, r.t.m, r.cycle)
	r.retire(sv)
	sv.Crash()
	// The copy's clock and disk counters continue where the salvaged
	// disk's stand.
	keptClk.Set(r.clk.Now())
	r.diskAcc = addDisk(r.diskAcc, r.d.Stats().Sub(r.disk0))
	r.d, r.clk, r.disk0 = kept, keptClk, disk.Stats{}
	if r.vol, _, err = cedarfs.Mount(r.d, r.cfg); err != nil {
		return fmt.Errorf("cycle %d remount: %w", r.cycle, err)
	}
	r.t.inner.V = r.vol
	return nil
}

func runCheckRepair(o runOpts) (*outcome, error) {
	out := &outcome{Workload: o.workload, Metrics: results{}}
	cfg := pinned(cedarfs.Config{})
	geom, fill, mutations := disk.DefaultGeometry, int64(60_000_000), crMutations
	if o.tiny {
		geom, fill, mutations = disk.SmallGeometry, 2_000_000, 60
		cfg = pinned(cedarfs.Config{NTPages: 256}) // the 19 MB test drive has no room for two 8 MB name tables
	}
	r, setupS, err := setupMedian(func() (*checkRepair, error) {
		e, err := buildLocal(o, cfg, geom, func(e *localEnv) error {
			// The BENCH_pfsck image: about 2,600 files in the paper's size mix.
			if _, err := workload.PopulateVolume(e.t, e.rng, fill, 64<<10); err != nil {
				return err
			}
			dirs := 8
			if o.tiny {
				dirs = 1
			}
			e.mut = newMetaClient(nil, nil, "cr", o.seed*1000+7, newPool(o.seed+1, 1<<20), mutationMix, dirs, 32)
			e.mut.attach(e.vol)
			e.mut.populate()
			if e.mut.failed > 0 {
				return fmt.Errorf("populate: %v", e.mut.problems)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r := &checkRepair{localEnv: e, out: out, mutations: mutations}
		for c := 0; c < 4; c++ { // warm-up: one group, salvage included
			if err := r.runCycle(); err != nil {
				return nil, err
			}
		}
		return r, nil
	}, func(r *checkRepair) { r.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { r.close() }()
	m := out.Metrics

	groups := o.seconds * crGroupsPer15s / 15
	if o.tiny || groups < 1 {
		groups = 1
	}
	r.openWindow()
	runtime.GC()
	mem0 := memStats()
	sim0 := r.clk.Now()
	var rounds []roundResult
	for _, traced := range roundPlan(o.traced) {
		rsim0, cpu0, t0 := r.clk.Now(), cpuTime(), time.Now()
		for g := 0; g < groups*4; g++ {
			if err := r.runCycle(); err != nil {
				return nil, err
			}
		}
		rounds = append(rounds, roundResult{traced: traced, ops: len(r.lat), wall: time.Since(t0), cpu: cpuTime() - cpu0,
			sim: r.clk.Now() - rsim0, lat: r.lat})
		r.lat = nil
	}
	mem1 := memStats()
	r.retire(r.vol)
	w := window{sim: r.clk.Now() - sim0, cpu: r.accCPU, disk: addDisk(r.diskAcc, r.d.Stats().Sub(r.disk0)), c: r.acc}
	passes := 0
	for _, rr := range rounds {
		passes += rr.ops
	}
	out.Attempted = passes + r.mutOps

	// p99 of a round's few dozen passes would be its maximum; p90 has
	// samples beyond it.
	tput, p50, tail, cpuUs := roundMedians(rounds, 0.90)
	wallMetrics(out, setupS, tput, p50, tail, cpuUs)
	processMetrics(m, mem0, mem1, passes)
	costMetrics(m, w, passes, r.mut.userBytes)
	out.Notes = append(out.Notes, fmt.Sprintf("%d rounds x %d groups of 4 cycles (%d mutations, crash, mount, verify, scrub; every 4th adds salvage + verify); an op is one pass; tail is p90 of %d samples per round",
		len(rounds), groups, mutations, rounds[0].ops), seriesNote("measured", rounds))

	collect(out, &r.mut.clientStats)
	v2, err := finish(out, r.vol, r.d, r.cfg, cedarfs.NewLocalFS(r.vol), r.tail, r.models)
	if err != nil {
		return nil, err
	}
	r.vol = v2
	closingMetrics(out)

	if o.traced {
		layerDeltas(m, w, passes)
		m.set("core.round_drift_ratio", rounds[len(rounds)-1].opsPerS()/rounds[0].opsPerS())
		// Nothing is recorded per call here: the passes time themselves.
		m.set("trace.overhead_ratio", 1)
		tf := &traceFile{Workload: o.workload, Seed: o.seed, Rounds: roundRecords("measured", rounds, 0.90), Notes: out.Notes}
		for k, name := range passNames {
			m.set(name+"_sim_s", mean(r.passSim[k]))
			m.set(name+"_wall_ms", mean(r.passWall[k]))
			tf.Summary = append(tf.Summary,
				layerSummary{"check", name, len(r.passWall[k]), mean(r.passWall[k]) * 1e3, "wall"},
				layerSummary{"check", name, len(r.passSim[k]), mean(r.passSim[k]) * 1e6, "sim"})
		}
		m.set("parscan.steals", float64(r.steals))
		runProbes(m, probeInput{vol: v2, keys: modelKeys(r.models()), tiny: o.tiny})
		tf.Metrics = m
		if out.TraceFile, err = writeTrace(o.outDir, tf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSalvaged holds a salvaged volume to what salvage promises: every
// file that was created once and never renamed or deleted (the populated
// image) is back under its name with its size, and — for every eighth —
// its bytes.
func checkSalvaged(o *outcome, v *cedarfs.Volume, pop *model, cycle int) {
	fs := cedarfs.NewLocalFS(v)
	for i, name := range modelKeys(pop) {
		want := pop.files[name].newest()
		if i%8 != 0 {
			if fi, err := fs.Stat(bg, name, 0); err != nil || fi.Version != want.ver || int(fi.ByteSize) != want.size {
				o.problem("cycle %d salvage: %s: got %+v, %v", cycle, name, fi, err)
			}
			continue
		}
		if data, _, err := readWhole(fs, name, 0); err != nil || len(data) != want.size || crc32.ChecksumIEEE(data) != want.crc {
			o.problem("cycle %d salvage: %s: payload not recovered (%v)", cycle, name, err)
		}
	}
}

// addDisk returns a + b for the fields the metrics use.
func addDisk(a, b disk.Stats) disk.Stats {
	neg := disk.Stats{}.Sub(b)
	return a.Sub(neg)
}

func versions(m *model) int {
	n := 0
	for _, s := range m.files {
		n += len(s)
	}
	return n
}
