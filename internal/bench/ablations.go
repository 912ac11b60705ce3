package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/workload"
)

// AblationCommitInterval sweeps the group-commit period over the bulk-update
// workload: the paper notes the reduction factors "may be improved somewhat
// by using a bigger log and lengthening the time between commits", at the
// price of a longer window of uncertainty.
func AblationCommitInterval() (Table, error) {
	t := Table{
		ID:     "Ablation/interval",
		Title:  "Group-commit interval vs bulk-update I/O",
		Header: []string{"Interval", "Metadata I/Os", "Total I/Os", "Log forces", "Images elided"},
	}
	for _, iv := range []time.Duration{-1, 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		cfg := fsdBenchConfig()
		cfg.GroupCommitInterval = iv
		fe, err := newFSD(cfg)
		if err != nil {
			return Table{}, err
		}
		if err := workload.BulkUpdatePrepare(fe.t, workload.DefaultBulkUpdate); err != nil {
			return Table{}, err
		}
		fe.v.Force()
		fe.d.ResetStats()
		fe.v.Log().ResetStats()
		if err := workload.BulkUpdateRun(fe.t, workload.DefaultBulkUpdate); err != nil {
			return Table{}, err
		}
		fe.v.Force()
		ds := fe.d.Stats()
		ls := fe.v.Log().Stats()
		label := iv.String()
		if iv < 0 {
			label = "sync"
		}
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprint(ds.OpsByClass[disk.ClassMeta]), fmt.Sprint(ds.Ops),
			fmt.Sprint(ls.Forces), fmt.Sprint(ls.ImagesElided),
		})
	}
	t.Notes = append(t.Notes, "paper design point: 500ms")
	return t, nil
}

// AblationThirds varies the number of log divisions: more divisions use the
// log more fully (fraction (2k-1)/2k) but flush home pages more often.
func AblationThirds() (Table, error) {
	t := Table{
		ID:     "Ablation/thirds",
		Title:  "Log divisions vs home-page flush traffic",
		Header: []string{"Divisions", "Crossings", "Home flushes", "Records", "Avg usable fraction"},
	}
	for _, k := range []int{2, 3, 4, 6} {
		cfg := fsdBenchConfig()
		cfg.Thirds = k
		cfg.LogSectors = 4 + k*400 // keep total log size comparable
		fe, err := newFSD(cfg)
		if err != nil {
			return Table{}, err
		}
		// Enough churn to wrap the log several times.
		for i := 0; i < 1200; i++ {
			if _, err := fe.v.Create(fmt.Sprintf("churn/f%05d", i), workload.Payload(600, byte(i))); err != nil {
				return Table{}, err
			}
			if i%25 == 24 {
				fe.v.Force()
			}
		}
		fe.v.Force()
		ls := fe.v.Log().Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(ls.ThirdCrossings), fmt.Sprint(ls.HomeFlushes),
			fmt.Sprint(ls.Records), fmt.Sprintf("%.2f", float64(2*k-1)/float64(2*k)),
		})
	}
	t.Notes = append(t.Notes, "paper uses thirds: 5/6 of the log in use on average")
	return t, nil
}

// AblationDoubleWrite compares the doubled name table against a single copy:
// the write cost of the paper's robustness choice.
func AblationDoubleWrite() (Table, error) {
	t := Table{
		ID:     "Ablation/doublewrite",
		Title:  "Name-table double write: robustness cost",
		Header: []string{"Mode", "100-create I/Os", "list-100 I/Os (cold)", "Survives one damaged copy"},
	}
	for _, single := range []bool{false, true} {
		cfg := fsdBenchConfig()
		cfg.SingleCopyNT = single
		fe, err := newFSD(cfg)
		if err != nil {
			return Table{}, err
		}
		fe.d.ResetStats()
		if err := workload.SmallCreates(fe.t, "dw", 100, 500); err != nil {
			return Table{}, err
		}
		fe.v.Force()
		creates := fe.d.Stats().Ops
		fe.v.DropCaches()
		fe.d.ResetStats()
		if _, err := workload.ListDir(fe.t, "dw"); err != nil {
			return Table{}, err
		}
		lists := fe.d.Stats().Ops
		mode, survives := "double (paper)", "yes"
		if single {
			mode, survives = "single", "no"
		}
		t.Rows = append(t.Rows, []string{mode, fmt.Sprint(creates), fmt.Sprint(lists), survives})
	}
	return t, nil
}

// AblationPlacement compares centre-cylinder metadata placement against
// edge placement, measuring seek time during MakeDo.
func AblationPlacement() (Table, error) {
	t := Table{
		ID:     "Ablation/placement",
		Title:  "Metadata placement: centre vs edge cylinders",
		Header: []string{"Placement", "MakeDo seek time (ms)", "MakeDo elapsed (ms)", "Seeks"},
	}
	for _, edge := range []bool{false, true} {
		cfg := fsdBenchConfig()
		cfg.EdgePlacement = edge
		fe, err := newFSD(cfg)
		if err != nil {
			return Table{}, err
		}
		if err := workload.MakeDoPrepare(fe.t, workload.DefaultMakeDo); err != nil {
			return Table{}, err
		}
		fe.v.Force()
		fe.d.ResetStats()
		start := fe.clk.Now()
		if err := workload.MakeDoRun(fe.t, workload.DefaultMakeDo, newRng(5)); err != nil {
			return Table{}, err
		}
		fe.v.Force()
		elapsed := fe.clk.Now() - start
		ds := fe.d.Stats()
		mode := "centre (paper)"
		if edge {
			mode = "edge"
		}
		t.Rows = append(t.Rows, []string{
			mode, ms(ds.SeekTime), ms(elapsed), fmt.Sprint(ds.Seeks + ds.ShortSeeks),
		})
	}
	return t, nil
}

// AblationAllocator compares the big/small split allocator against a
// CFS-style single first-fit area under create/delete churn with the
// paper's file-size distribution, reporting the largest free run left.
func AblationAllocator() (Table, error) {
	t := Table{
		ID:     "Ablation/allocator",
		Title:  "Big/small file areas vs single area: fragmentation after churn",
		Header: []string{"Allocator", "Largest free run (pages)", "Files", "Free pages"},
	}
	run := func(split bool) ([]string, error) {
		cfg := fsdBenchConfig()
		if !split {
			// A huge threshold makes everything "small": one first-fit
			// area, like CFS.
			cfg.SmallThreshold = 1 << 30
		}
		fe, err := newFSD(cfg)
		if err != nil {
			return nil, err
		}
		rng := newRng(7)
		var live []string
		// Interleave small and big files, then delete every other one.
		for i := 0; i < 400; i++ {
			size := workload.FileSize(rng)
			if size > 512*1024 {
				size = 512 * 1024
			}
			name := fmt.Sprintf("frag/f%05d", i)
			if _, err := fe.v.Create(name, workload.Payload(size, byte(i))); err != nil {
				return nil, err
			}
			live = append(live, name)
		}
		for i := 0; i < len(live); i += 2 {
			if err := fe.v.Delete(live[i], 0); err != nil {
				return nil, err
			}
		}
		fe.v.Force()
		// Probe the largest contiguous run by bisection on Alloc size.
		lo, hi := 0, fe.v.VAM().FreeCount()
		probe := func(n int) bool {
			f, err := fe.v.Create("frag/probe", make([]byte, (n-1)*disk.SectorSize))
			if err != nil {
				return false
			}
			single := len(f.Entry().Runs) == 1
			fe.v.Delete("frag/probe", 0)
			fe.v.Force()
			return single
		}
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if probe(mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		label := "single area (CFS-style)"
		if split {
			label = "big/small areas (paper)"
		}
		return []string{label, fmt.Sprint(lo), "400 created / 200 deleted", fmt.Sprint(fe.v.VAM().FreeCount())}, nil
	}
	for _, split := range []bool{true, false} {
		row, err := run(split)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationVAMLogging reproduces the claim behind the paper's rejected
// extension: "VAM logging would greatly decrease worst case crash recovery
// time from about twenty five seconds to about two seconds. VAM logging was
// not done since it was a complicated modification, worst case recovery is
// rare, and recovery was fast enough anyway." This repository implements it
// (Config.LogVAM) and measures both paths on identically populated volumes.
func AblationVAMLogging() (Table, error) {
	t := Table{
		ID:     "Ablation/vamlog",
		Title:  "VAM logging (the paper's rejected extension): crash recovery time",
		Header: []string{"Mode", "Recovery (s)", "VAM scan (s)", "Log records", "Reconstructed"},
	}
	for _, logVAM := range []bool{false, true} {
		cfg := fsdBenchConfig()
		cfg.LogVAM = logVAM
		fe, err := newFSD(cfg)
		if err != nil {
			return Table{}, err
		}
		if _, err := populate(fe.t, 11); err != nil {
			return Table{}, err
		}
		if err := fe.v.Force(); err != nil {
			return Table{}, err
		}
		if err := fe.v.Force(); err != nil { // carry the shadow-merge deltas
			return Table{}, err
		}
		fe.v.Crash()
		fe.d.Revive()
		_, ms2, err := core.Mount(fe.d, cfg)
		if err != nil {
			return Table{}, err
		}
		mode := "scan on recovery (paper's choice)"
		if logVAM {
			mode = "VAM logging (rejected extension)"
		}
		t.Rows = append(t.Rows, []string{
			mode,
			fmt.Sprintf("%.1f", ms2.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", ms2.VAMElapsed.Seconds()),
			fmt.Sprint(ms2.LogRecords),
			fmt.Sprint(ms2.VAMReconstructed),
		})
	}
	t.Notes = append(t.Notes, "paper's estimate: 25 s worst case -> about 2 s with VAM logging")
	return t, nil
}

// AblationLogSize varies the log region: the paper notes the group-commit
// reduction factors "may be improved somewhat by using a bigger log", which
// shows up as fewer third crossings (less home-flush traffic) per unit of
// work.
func AblationLogSize() (Table, error) {
	t := Table{
		ID:     "Ablation/logsize",
		Title:  "Log size vs flush traffic under churn",
		Header: []string{"Log (sectors)", "Crossings", "Home flushes", "Records", "Total I/Os"},
	}
	for _, size := range []int{4 + 3*256, 4 + 3*800, 4 + 3*2400} {
		cfg := fsdBenchConfig()
		cfg.LogSectors = size
		fe, err := newFSD(cfg)
		if err != nil {
			return Table{}, err
		}
		fe.d.ResetStats()
		for i := 0; i < 1200; i++ {
			if _, err := fe.v.Create(fmt.Sprintf("ls/f%05d", i), workload.Payload(600, byte(i))); err != nil {
				return Table{}, err
			}
			if i%25 == 24 {
				fe.v.Force()
			}
		}
		fe.v.Force()
		ls := fe.v.Log().Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), fmt.Sprint(ls.ThirdCrossings), fmt.Sprint(ls.HomeFlushes),
			fmt.Sprint(ls.Records), fmt.Sprint(fe.d.Stats().Ops),
		})
	}
	t.Notes = append(t.Notes, "paper default: 2404 sectors (~1.2 MB)")
	return t, nil
}

// Hardware prints the simulated drive characterization every experiment
// runs on, with the figures the timing model derives from it.
func Hardware() (Table, error) {
	g, p := disk.DefaultGeometry, disk.DefaultParams
	rawBW := float64(g.SectorsPerTrack*disk.SectorSize) / p.Revolution().Seconds()
	t := Table{
		ID:     "Hardware",
		Title:  "Simulated Trident-class drive",
		Header: []string{"Parameter", "Value"},
		Rows: [][]string{
			{"capacity", fmt.Sprintf("%d MB (%d sectors of %d B)", g.Bytes()/(1<<20), g.Sectors(), disk.SectorSize)},
			{"geometry", fmt.Sprintf("%d cylinders x %d tracks x %d sectors", g.Cylinders, g.TracksPerCylinder, g.SectorsPerTrack)},
			{"spindle", fmt.Sprintf("%.0f RPM (%.2f ms/revolution)", p.RPM, p.Revolution().Seconds()*1000)},
			{"average seek (1/3 stroke)", fmt.Sprintf("%.1f ms", p.SeekTime(g.Cylinders/3).Seconds()*1000)},
			{"average rotational latency", fmt.Sprintf("%.2f ms", p.Revolution().Seconds()*500)},
			{"raw transfer rate", fmt.Sprintf("%.0f KB/s", rawBW/1024)},
			{"single-sector random read", fmt.Sprintf("~%.0f ms", (p.SeekTime(g.Cylinders/3)+p.Revolution()/2+p.SectorTime(g)).Seconds()*1000)},
		},
		Notes: []string{"all experiments and the analytical model share these parameters"},
	}
	return t, nil
}
