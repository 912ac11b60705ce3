package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskmodel"
	"repro/internal/unixfs"
	"repro/internal/workload"
)

// timeDur aliases time.Duration for brevity in multi-return signatures.
type timeDur = time.Duration

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// cfsScavenge runs the scavenger and returns its elapsed simulated time.
func cfsScavenge(d *disk.Disk) (*cfs.Volume, timeDur, error) {
	v, st, err := cfs.Scavenge(d, cfs.Config{})
	return v, st.Elapsed, err
}

// GroupCommit measures Section 5.4's claims: the I/O reduction from logging
// plus group commit during bulk operations (paper: 2.98x for metadata,
// 2.34x overall), and the log record size statistics (7-sector minimum,
// ~33-sector typical under load, 83 maximum).
func GroupCommit() (Table, error) {
	run := func(cfg core.Config) (meta, total int, st walStats, err error) {
		fe, err := newFSD(cfg)
		if err != nil {
			return 0, 0, walStats{}, err
		}
		if err := workload.BulkUpdatePrepare(fe.t, workload.DefaultBulkUpdate); err != nil {
			return 0, 0, walStats{}, err
		}
		fe.v.Force()
		fe.d.ResetStats()
		fe.v.Log().ResetStats()
		if err := workload.BulkUpdateRun(fe.t, workload.DefaultBulkUpdate); err != nil {
			return 0, 0, walStats{}, err
		}
		fe.v.Force()
		ds := fe.d.Stats()
		ls := fe.v.Log().Stats()
		return ds.OpsByClass[disk.ClassMeta], ds.Ops, walStats{
			records: ls.Records, min: ls.MinRecordSectors, max: ls.MaxRecordSectors,
			sectors: ls.SectorsWritten, staged: ls.ImagesStaged, logged: ls.ImagesLogged,
		}, nil
	}
	gcfg := fsdBenchConfig()
	scfg := fsdBenchConfig()
	scfg.GroupCommitInterval = -1
	gMeta, gTotal, gws, err := run(gcfg)
	if err != nil {
		return Table{}, err
	}
	sMeta, sTotal, _, err := run(scfg)
	if err != nil {
		return Table{}, err
	}

	// The paper's 2.98x / 2.34x factors compare the old system against
	// FSD on bulk operations. Those operations (bringovers) were paced
	// by network fetches, arriving roughly a commit window apart — run
	// the paced variant on both systems, counting CFS's metadata-purpose
	// I/Os (headers, labels, name table) explicitly.
	pacedFSD, err := newFSD(fsdBenchConfig())
	if err != nil {
		return Table{}, err
	}
	if err := workload.BulkUpdatePrepare(pacedFSD.t, workload.DefaultBulkUpdate); err != nil {
		return Table{}, err
	}
	pacedFSD.v.Force()
	pacedFSD.d.ResetStats()
	err = workload.BulkUpdateRunPaced(pacedFSD.t, workload.DefaultBulkUpdate, func() {
		pacedFSD.clk.Advance(600 * time.Millisecond)
		pacedFSD.v.Tick()
	})
	if err != nil {
		return Table{}, err
	}
	pacedFSD.v.Force()
	pfMeta := pacedFSD.d.Stats().OpsByClass[disk.ClassMeta]
	pfTotal := pacedFSD.d.Stats().Ops

	ce, err := newCFS()
	if err != nil {
		return Table{}, err
	}
	if err := workload.BulkUpdatePrepare(ce.t, workload.DefaultBulkUpdate); err != nil {
		return Table{}, err
	}
	ce.d.ResetStats()
	ce.v.ResetMetaIOs()
	err = workload.BulkUpdateRunPaced(ce.t, workload.DefaultBulkUpdate, func() {
		ce.clk.Advance(600 * time.Millisecond)
	})
	if err != nil {
		return Table{}, err
	}
	cfsMeta := ce.v.MetaIOs()
	cfsTotal := ce.d.Stats().Ops

	avg := 0
	if gws.records > 0 {
		avg = gws.sectors / gws.records
	}
	t := Table{
		ID:     "GC",
		Title:  "Group commit: bulk-update I/O reduction and log record sizes (5.4)",
		Header: []string{"Metric", "Paper", "Ours"},
		Rows: [][]string{
			{"metadata I/O reduction factor (vs CFS)", "2.98", ratio(float64(cfsMeta), float64(pfMeta))},
			{"total I/O reduction factor (vs CFS)", "2.34", ratio(float64(cfsTotal), float64(pfTotal))},
			{"metadata I/O reduction factor (vs sync FSD)", "-", ratio(float64(sMeta), float64(gMeta))},
			{"total I/O reduction factor (vs sync FSD)", "-", ratio(float64(sTotal), float64(gTotal))},
			{"smallest possible record (1 image, sectors)", "7", fmt.Sprint(5 + 2*1)},
			{"smallest observed record (sectors)", "-", fmt.Sprint(gws.min)},
			{"typical log record under load (sectors)", "33", fmt.Sprint(avg)},
			{"largest permitted record (sectors)", "83", fmt.Sprint(5 + 2*39)},
			{"images staged / images logged", "-", fmt.Sprintf("%d / %d", gws.staged, gws.logged)},
		},
		Notes: []string{
			fmt.Sprintf("paced (bringover) runs — CFS: %d metadata / %d total I/Os, FSD: %d / %d", cfsMeta, cfsTotal, pfMeta, pfTotal),
			fmt.Sprintf("back-to-back runs — grouped FSD: %d / %d, sync FSD: %d / %d", gMeta, gTotal, sMeta, sTotal),
		},
	}
	return t, nil
}

type walStats struct{ records, min, max, sectors, staged, logged int }

// Recovery measures the full recovery comparison of Section 7: FSD log
// replay (+ VAM reconstruction), CFS scavenge, and BSD fsck on comparably
// full 300 MB volumes.
func Recovery() (Table, error) {
	rec, err := recoveryTimes()
	if err != nil {
		return Table{}, err
	}
	// BSD fsck on a comparably populated volume.
	ue, err := newUnix(unixfs.Config{})
	if err != nil {
		return Table{}, err
	}
	if _, err := populate(ue.t, 11); err != nil {
		return Table{}, err
	}
	ue.fs.Crash()
	ue.d.Revive()
	_, fst, err := unixfs.Fsck(ue.d, unixfs.Config{})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Recovery",
		Title:  "Crash recovery on a moderately full 300 MB volume (7)",
		Header: []string{"System", "Paper", "Ours"},
		Rows: [][]string{
			{"FSD (log replay + VAM rebuild)", "1 - 25 s", fmt.Sprintf("%.1f s", rec.fsd.Seconds())},
			{"  of which VAM reconstruction", "~20 s", fmt.Sprintf("%.1f s", rec.fsdVAM.Seconds())},
			{"4.3 BSD fsck (VAX-11/785)", "~420 s", fmt.Sprintf("%.0f s (%d inodes)", fst.Elapsed.Seconds(), fst.InodesChecked)},
			{"CFS scavenge", "3600+ s", fmt.Sprintf("%.0f s", rec.cfsScav.Seconds())},
		},
	}
	return t, nil
}

// ModelValidation reproduces Section 6: the analytical model's predictions
// against the simulator's measurements for the simple operations ("the
// model almost always predicted performance to within five percent").
func ModelValidation() (Table, error) {
	g, p := disk.DefaultGeometry, disk.DefaultParams

	fe, err := newFSD(fsdBenchConfig())
	if err != nil {
		return Table{}, err
	}
	ce, err := newCFS()
	if err != nil {
		return Table{}, err
	}
	for _, w := range []workload.Target{fe.t, ce.t} {
		if err := workload.SmallCreates(w, "warm", 50, 600); err != nil {
			return Table{}, err
		}
	}
	fNT, fLog := fe.v.ModelInfo()
	cNT := ce.v.ModelInfo()

	const n = 200
	// Measured values.
	mFSDCreate, err := meanOp(fe.clk, n, func(i int) error {
		_, err := fe.v.Create(fmt.Sprintf("mv/c%04d", i), []byte{1})
		return err
	})
	if err != nil {
		return Table{}, err
	}
	// Derive the group-commit amortization inputs from the measured run,
	// as the paper derived its locality facts from the running system.
	ls := fe.v.Log().Stats()
	forceEvery := n
	forceSectors := 7
	if ls.Forces > 0 {
		forceEvery = n / ls.Forces
		if ls.Records > 0 {
			forceSectors = ls.SectorsWritten / ls.Records
		}
	}
	env := diskmodel.Env{G: g, P: p, DataToNTCyl: fNT, DataToLogCyl: fLog,
		ForceEvery: forceEvery, ForceSectors: forceSectors}
	cenv := diskmodel.Env{G: g, P: p, DataToNTCyl: cNT}

	mFSDOpen, err := meanOp(fe.clk, n, func(i int) error {
		_, err := fe.v.Open(fmt.Sprintf("mv/c%04d", i%n), 0)
		return err
	})
	if err != nil {
		return Table{}, err
	}
	mFSDDelete, err := meanOp(fe.clk, n, func(i int) error {
		return fe.v.Delete(fmt.Sprintf("mv/c%04d", i), 0)
	})
	if err != nil {
		return Table{}, err
	}
	mCFSCreate, err := meanOp(ce.clk, n, func(i int) error {
		_, err := ce.v.Create(fmt.Sprintf("mv/c%04d", i), []byte{1})
		return err
	})
	if err != nil {
		return Table{}, err
	}
	mCFSOpen, err := meanOp(ce.clk, n, func(i int) error {
		_, err := ce.v.Open(fmt.Sprintf("mv/c%04d", i%n), 0)
		return err
	})
	if err != nil {
		return Table{}, err
	}
	mCFSDelete, err := meanOp(ce.clk, n, func(i int) error {
		return ce.v.Delete(fmt.Sprintf("mv/c%04d", i), 0)
	})
	if err != nil {
		return Table{}, err
	}
	// Large creates (1 MB = 2048 data pages), transfer-bound.
	largeData := workload.Payload(1_000_000, 5)
	largePages := (len(largeData) + 511) / 512
	mFSDLarge, err := meanOp(fe.clk, 3, func(i int) error {
		_, err := fe.v.Create(fmt.Sprintf("mv/L%d", i), largeData)
		return err
	})
	if err != nil {
		return Table{}, err
	}
	mCFSLarge, err := meanOp(ce.clk, 3, func(i int) error {
		_, err := ce.v.Create(fmt.Sprintf("mv/L%d", i), largeData)
		return err
	})
	if err != nil {
		return Table{}, err
	}

	rows := []struct {
		name      string
		predicted time.Duration
		measured  time.Duration
	}{
		{"FSD open", diskmodel.FSDOpen(env).Expected(g, p), mFSDOpen},
		{"FSD small create", diskmodel.FSDSmallCreate(env).Expected(g, p), mFSDCreate},
		{"FSD small delete", diskmodel.FSDDelete(env).Expected(g, p), mFSDDelete},
		{"CFS open", diskmodel.CFSOpen(cenv).Expected(g, p), mCFSOpen},
		{"CFS small create", diskmodel.CFSSmallCreate(cenv).Expected(g, p), mCFSCreate},
		{"CFS small delete", diskmodel.CFSSmallDelete(cenv).Expected(g, p), mCFSDelete},
		{"FSD large create", diskmodel.FSDLargeCreate(env, largePages, 64).Expected(g, p), mFSDLarge},
		{"CFS large create", diskmodel.CFSLargeCreate(cenv, largePages, 64).Expected(g, p), mCFSLarge},
	}
	t := Table{
		ID:     "Model",
		Title:  "Analytical model vs measurement (6)",
		Header: []string{"Operation", "Model (ms)", "Measured (ms)", "Error %"},
	}
	for _, r := range rows {
		errPct := 100 * (float64(r.predicted) - float64(r.measured)) / float64(r.measured)
		t.Rows = append(t.Rows, []string{r.name, ms(r.predicted), ms(r.measured), fmt.Sprintf("%+.1f", errPct)})
	}
	t.Notes = append(t.Notes, "paper: 'the model almost always predicted performance to within five percent'")
	return t, nil
}

// MaxErrorPct returns the largest absolute model error in a ModelValidation
// table; tests use it.
func MaxErrorPct(t Table) float64 {
	var worst float64
	for _, r := range t.Rows {
		var v float64
		fmt.Sscanf(r[3], "%f", &v)
		if v < 0 {
			v = -v
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// RecoveryScaling measures FSD crash recovery as a function of how full the
// volume is — the paper reports a range, "1 to 25 seconds", because the
// dominant cost (the VAM reconstruction scan) is proportional to the name
// table's size.
func RecoveryScaling() (Table, error) {
	t := Table{
		ID:     "RecoveryScaling",
		Title:  "FSD recovery time vs volume occupancy (the paper's 1-25 s range)",
		Header: []string{"Occupancy", "Files", "Recovery (s)", "VAM scan (s)", "Log records"},
	}
	for _, mb := range []int{5, 40, 110, 170} {
		fe, err := newFSD(fsdBenchConfig())
		if err != nil {
			return Table{}, err
		}
		names, err := workload.PopulateVolume(fe.t, newRng(31), int64(mb)<<20, 192*1024)
		if err != nil {
			return Table{}, err
		}
		if err := fe.v.Force(); err != nil {
			return Table{}, err
		}
		fe.v.Crash()
		fe.d.Revive()
		_, ms2, err := core.Mount(fe.d, fsdBenchConfig())
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d MB", mb),
			fmt.Sprint(len(names)),
			fmt.Sprintf("%.1f", ms2.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", ms2.VAMElapsed.Seconds()),
			fmt.Sprint(ms2.LogRecords),
		})
	}
	t.Notes = append(t.Notes, "paper: 'Recovery rarely takes more than two seconds' for the log alone; the 25 s worst case is the VAM scan on a full volume")
	return t, nil
}
