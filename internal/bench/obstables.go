package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskmodel"
)

// This file reproduces the paper's evaluation tables from the live
// observability counters — Volume.Stats() windows, span latency histograms,
// and the commit distributions — instead of stopwatching around calls. The
// three tables mirror the paper's Table 2 (disk I/Os per operation), Table 3
// (group commit batching the metadata writes of a bulk operation), and
// Tables 4/5 (analytical model vs measured operation timings). One shared
// run feeds all three, so `benchtab -table tables` costs a single volume.

// TablesReport is the JSON form of the live-counter table reproduction
// (recorded as BENCH_tables.json at the repo root).
type TablesReport struct {
	Clock    string         `json:"clock"`
	IOs      []IORow        `json:"ios_per_operation"`
	Batching BatchingReport `json:"group_commit_batching"`
	Timings  []TimingRow    `json:"operation_timings"`
}

// IORow is one operation class of the Table-2 reproduction: disk I/Os per
// logical operation, split total vs metadata, plus the span-measured mean
// latency, all from windowed Stats() deltas.
type IORow struct {
	Operation    string  `json:"operation"`
	Count        int     `json:"count"`
	IOsPerOp     float64 `json:"ios_per_op"`
	MetaIOsPerOp float64 `json:"meta_ios_per_op"`
	MeanMs       float64 `json:"mean_ms"`
	Paper        string  `json:"paper,omitempty"`
}

// BatchingReport is the Table-3 reproduction: how many staged metadata page
// images each logged image absorbed during a back-to-back bulk delete.
type BatchingReport struct {
	Files               int     `json:"files"`
	ImagesStaged        int     `json:"images_staged"`
	ImagesLogged        int     `json:"images_logged"`
	BatchingFactor      float64 `json:"batching_factor"`
	Forces              int     `json:"forces"`
	MeanImagesPerForce  float64 `json:"mean_images_per_force"`
	MeanRecordsPerForce float64 `json:"mean_records_per_force"`
	MeanForceIntervalMs float64 `json:"mean_force_interval_ms"`
}

// TimingRow is one operation of the Tables-4/5 reproduction: the analytical
// model's prediction against the span-measured mean.
type TimingRow struct {
	Operation  string  `json:"operation"`
	ModelMs    float64 `json:"model_ms"`
	MeasuredMs float64 `json:"measured_ms"`
	ErrorPct   float64 `json:"error_pct"`
}

// tablesCache memoizes the shared run so the three table generators (and the
// JSON writer) reuse one volume instead of re-running the workload.
var tablesCache struct {
	sync.Mutex
	rep *TablesReport
	err error
}

func tablesReport() (TablesReport, error) {
	tablesCache.Lock()
	defer tablesCache.Unlock()
	if tablesCache.rep == nil && tablesCache.err == nil {
		rep, err := computeTables()
		tablesCache.rep, tablesCache.err = &rep, err
	}
	if tablesCache.err != nil {
		return TablesReport{}, tablesCache.err
	}
	return *tablesCache.rep, nil
}

// spanWindow returns the invocation count and mean latency (ms) of one span
// between two Stats snapshots. Missing spans read as zero-valued, so a
// window opened before the first invocation still differences cleanly.
func spanWindow(before, after core.Stats, name string) (int, float64) {
	a, b := after.Spans[name], before.Spans[name]
	n := a.Count - b.Count
	if n <= 0 {
		return 0, 0
	}
	sum := a.Latency.Sum - b.Latency.Sum
	return int(n), float64(sum) / float64(n) / float64(time.Millisecond)
}

func computeTables() (TablesReport, error) {
	rep := TablesReport{Clock: "every *_ms: simulated milliseconds on the virtual clock (span histograms and the analytical model); everything else: counts and ratios of counts"}
	fe, err := newFSD(fsdBenchConfig())
	if err != nil {
		return rep, err
	}

	// --- Table 2: disk I/Os per operation, from windowed live counters ---
	const nOps = 100
	warm := make([]string, nOps)
	for i := range warm {
		warm[i] = fmt.Sprintf("t2/w%03d", i)
		if _, err := fe.v.Create(warm[i], payloadBytes(600, byte(i))); err != nil {
			return rep, err
		}
	}
	if err := fe.v.Force(); err != nil {
		return rep, err
	}

	measure := func(name, span, paper string, n int, fn func(i int) error) error {
		before := fe.v.Stats()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		after := fe.v.Stats()
		dd := after.Disk.Sub(before.Disk)
		_, mean := spanWindow(before, after, span)
		rep.IOs = append(rep.IOs, IORow{
			Operation:    name,
			Count:        n,
			IOsPerOp:     float64(dd.Ops) / float64(n),
			MetaIOsPerOp: float64(dd.OpsByClass[disk.ClassMeta]) / float64(n),
			MeanMs:       mean,
			Paper:        paper,
		})
		return nil
	}
	if err := measure("open (warm name table)", "open", "0", nOps, func(i int) error {
		_, err := fe.v.Open(warm[i], 0)
		return err
	}); err != nil {
		return rep, err
	}
	if err := measure("open + read 600 B", "read", "1", nOps, func(i int) error {
		f, err := fe.v.Open(warm[i], 0)
		if err != nil {
			return err
		}
		_, err = f.ReadPages(0, 1)
		return err
	}); err != nil {
		return rep, err
	}
	if err := measure("small create (600 B)", "create", "1", nOps, func(i int) error {
		_, err := fe.v.Create(fmt.Sprintf("t2/c%03d", i), payloadBytes(600, byte(i)))
		return err
	}); err != nil {
		return rep, err
	}
	if err := measure("touch (set mtime)", "touch", "0", nOps, func(i int) error {
		return fe.v.Touch(warm[i], 0)
	}); err != nil {
		return rep, err
	}
	if err := measure("delete", "delete", "0", nOps, func(i int) error {
		return fe.v.Delete(fmt.Sprintf("t2/c%03d", i), 0)
	}); err != nil {
		return rep, err
	}
	if err := measure("list (100-file prefix scan)", "list", "", 10, func(i int) error {
		return fe.v.List("t2/", func(core.Entry) bool { return true })
	}); err != nil {
		return rep, err
	}
	if err := fe.v.Force(); err != nil {
		return rep, err
	}

	// --- Table 3: group-commit batching on a back-to-back bulk delete ---
	const nBulk = 400
	for i := 0; i < nBulk; i++ {
		if _, err := fe.v.Create(fmt.Sprintf("t3/f%04d", i), payloadBytes(600, byte(i))); err != nil {
			return rep, err
		}
	}
	if err := fe.v.Force(); err != nil {
		return rep, err
	}
	before := fe.v.Stats()
	for i := 0; i < nBulk; i++ {
		if err := fe.v.Delete(fmt.Sprintf("t3/f%04d", i), 0); err != nil {
			return rep, err
		}
	}
	if err := fe.v.Force(); err != nil {
		return rep, err
	}
	after := fe.v.Stats()
	staged := after.Commit.ImagesStaged - before.Commit.ImagesStaged
	logged := after.Commit.ImagesLogged - before.Commit.ImagesLogged
	batch := after.Commit.BatchImages.Sub(before.Commit.BatchImages)
	recs := after.Commit.RecordsPerForce.Sub(before.Commit.RecordsPerForce)
	ivl := after.Commit.ForceInterval.Sub(before.Commit.ForceInterval)
	rep.Batching = BatchingReport{
		Files:               nBulk,
		ImagesStaged:        staged,
		ImagesLogged:        logged,
		Forces:              after.Commit.Forces - before.Commit.Forces,
		MeanImagesPerForce:  batch.Mean(),
		MeanRecordsPerForce: recs.Mean(),
		MeanForceIntervalMs: ivl.Mean() / float64(time.Millisecond),
	}
	if logged > 0 {
		rep.Batching.BatchingFactor = float64(staged) / float64(logged)
	}

	// --- Tables 4/5: analytical model vs span-measured timings ---
	g, p := disk.DefaultGeometry, disk.DefaultParams
	fNT, fLog := fe.v.ModelInfo()
	const nTim = 200
	b0 := fe.v.Stats()
	for i := 0; i < nTim; i++ {
		if _, err := fe.v.Create(fmt.Sprintf("t45/c%04d", i), []byte{1}); err != nil {
			return rep, err
		}
	}
	a0 := fe.v.Stats()
	_, mCreate := spanWindow(b0, a0, "create")
	// Derive the group-commit amortization inputs from this window, as the
	// paper derived its locality facts from the running system.
	forceEvery, forceSectors := nTim, 7
	if df := a0.Commit.Forces - b0.Commit.Forces; df > 0 {
		forceEvery = nTim / df
		if dr := a0.Commit.Records - b0.Commit.Records; dr > 0 {
			forceSectors = (a0.Commit.SectorsWritten - b0.Commit.SectorsWritten) / dr
		}
	}
	env := diskmodel.Env{G: g, P: p, DataToNTCyl: fNT, DataToLogCyl: fLog,
		ForceEvery: forceEvery, ForceSectors: forceSectors}

	b1 := fe.v.Stats()
	for i := 0; i < nTim; i++ {
		if _, err := fe.v.Open(fmt.Sprintf("t45/c%04d", i), 0); err != nil {
			return rep, err
		}
	}
	a1 := fe.v.Stats()
	_, mOpen := spanWindow(b1, a1, "open")

	b2 := fe.v.Stats()
	for i := 0; i < nTim; i++ {
		if err := fe.v.Delete(fmt.Sprintf("t45/c%04d", i), 0); err != nil {
			return rep, err
		}
	}
	a2 := fe.v.Stats()
	_, mDelete := spanWindow(b2, a2, "delete")

	timing := func(name string, model time.Duration, measured float64) TimingRow {
		mm := float64(model) / float64(time.Millisecond)
		r := TimingRow{Operation: name, ModelMs: mm, MeasuredMs: measured}
		if measured > 0 {
			r.ErrorPct = 100 * (mm - measured) / measured
		}
		return r
	}
	rep.Timings = []TimingRow{
		timing("FSD open", diskmodel.FSDOpen(env).Expected(g, p), mOpen),
		timing("FSD small create", diskmodel.FSDSmallCreate(env).Expected(g, p), mCreate),
		timing("FSD small delete", diskmodel.FSDDelete(env).Expected(g, p), mDelete),
	}
	return rep, nil
}

// payloadBytes builds a deterministic n-byte payload.
func payloadBytes(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i)
	}
	return b
}

// TablesIOs renders the Table-2 reproduction: disk I/Os per operation from
// the live Stats() windows.
func TablesIOs() (Table, error) {
	rep, err := tablesReport()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "T2",
		Title:  "Disk I/Os per operation, from live counters (Table 2)",
		Header: []string{"Operation", "N", "I/Os per op", "meta I/Os per op", "Mean (ms)", "Paper I/Os"},
	}
	for _, r := range rep.IOs {
		paper := r.Paper
		if paper == "" {
			paper = "-"
		}
		t.Rows = append(t.Rows, []string{
			r.Operation, fmt.Sprint(r.Count),
			fmt.Sprintf("%.2f", r.IOsPerOp), fmt.Sprintf("%.2f", r.MetaIOsPerOp),
			fmt.Sprintf("%.1f", r.MeanMs), paper,
		})
	}
	t.Notes = append(t.Notes,
		"counters windowed via Stats().Disk.Sub; latency is the span histogram mean",
		"paper column: synchronous I/Os Table 2 charges to the operation itself")
	return t, nil
}

// TablesBatching renders the Table-3 reproduction: the group-commit batching
// factor on a back-to-back bulk delete.
func TablesBatching() (Table, error) {
	rep, err := tablesReport()
	if err != nil {
		return Table{}, err
	}
	b := rep.Batching
	t := Table{
		ID:     "T3",
		Title:  "Group-commit batching on a bulk delete, from live counters (Table 3)",
		Header: []string{"Metric", "Paper", "Ours"},
		Rows: [][]string{
			{"files deleted back-to-back", "-", fmt.Sprint(b.Files)},
			{"metadata images staged", "-", fmt.Sprint(b.ImagesStaged)},
			{"metadata images logged", "-", fmt.Sprint(b.ImagesLogged)},
			{"batching factor (staged / logged)", "2.98", fmt.Sprintf("%.2f", b.BatchingFactor)},
			{"forces in the window", "-", fmt.Sprint(b.Forces)},
			{"mean images per force", "-", fmt.Sprintf("%.1f", b.MeanImagesPerForce)},
			{"mean records per force", "-", fmt.Sprintf("%.1f", b.MeanRecordsPerForce)},
			{"mean force interval (ms)", "~500", fmt.Sprintf("%.0f", b.MeanForceIntervalMs)},
		},
		Notes: []string{
			"staged/logged and the force distributions come from Stats().Commit (WAL counters + observability histograms)",
		},
	}
	return t, nil
}

// TablesTimings renders the Tables-4/5 reproduction: the analytical model's
// predictions against span-measured means.
func TablesTimings() (Table, error) {
	rep, err := tablesReport()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "T4/5",
		Title:  "Model vs span-measured operation timings (Tables 4 and 5)",
		Header: []string{"Operation", "Model (ms)", "Measured (ms)", "Error %"},
	}
	for _, r := range rep.Timings {
		t.Rows = append(t.Rows, []string{
			r.Operation, fmt.Sprintf("%.1f", r.ModelMs),
			fmt.Sprintf("%.1f", r.MeasuredMs), fmt.Sprintf("%+.1f", r.ErrorPct),
		})
	}
	t.Notes = append(t.Notes,
		"measured values are span-histogram means from Stats().Spans, not stopwatch timings")
	return t, nil
}

// WriteTablesJSON runs the experiment and records it at path
// (BENCH_tables.json at the repo root), so successive PRs can track the
// trajectory.
func WriteTablesJSON(path string) (TablesReport, error) {
	rep, err := tablesReport()
	if err != nil {
		return rep, err
	}
	return rep, writeJSON(path, rep)
}
