package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/workload"
)

// The data-path experiment: the file-data buffer cache with sequential
// read-ahead and clustered transfers (internal/bufcache), ablated against
// the paper's raw per-run path. Three configurations —
//
//	no-cache   the paper's FSD: every read goes to disk, one request per run
//	cache      buffer cache on, read-ahead off (demand clustering only)
//	cache+ra   buffer cache with sequential read-ahead (the full design)
//
// — each run three workloads on an identical volume: a sequential scan of a
// large Extend-grown file (the paper's observation that files are "usually
// extended a little at a time"; the allocator lengthens its run in place, so
// it is one ascending stretch), random single-page reads over the same file,
// and a repeated whole-file re-read of a small hot file. The headline numbers
// are disk read requests per sequential scan (a stream's request carries a
// window beyond the 8 pages asked for) and the re-read hit rate
// (write-through caching makes the second read free).

// DataPathResult is one (config, workload) cell.
type DataPathResult struct {
	Config           string  `json:"config"`   // no-cache | cache | cache+ra
	Workload         string  `json:"workload"` // sequential | random | re-read
	Reads            int     `json:"disk_read_ops"`
	SectorsRead      int     `json:"sectors_read"`
	MergeableOps     int     `json:"mergeable_ops"`
	DiskTimeMS       float64 `json:"disk_time_ms"`
	CacheHits        int     `json:"cache_hits"`
	CacheMisses      int     `json:"cache_misses"`
	HitRate          float64 `json:"hit_rate"`
	ReadAheadSectors int     `json:"read_ahead_sectors"`
	CoalescedReads   int     `json:"coalesced_reads"`
}

// DataPathReport is what BENCH_datapath.json holds.
type DataPathReport struct {
	Clock   string           `json:"clock"`
	Model   string           `json:"model"`
	Results []DataPathResult `json:"results"`
	// SeqReadReduction is the sequential-scan disk-request ratio of the
	// no-cache baseline to the full design (the ISSUE's >= 4x criterion).
	SeqReadReduction float64 `json:"seq_read_reduction"`
	// RereadHitRate is the full design's hit rate on the re-read workload
	// (the ISSUE's >= 90% criterion).
	RereadHitRate float64 `json:"reread_hit_rate"`
}

const (
	dpBigPages  = 400 // sequential/random target: grown by Extend, 8 pages at a time
	dpHotPages  = 96  // re-read target: small hot file
	dpSeqChunk  = 8   // pages per sequential ReadPages call
	dpRereads   = 16  // whole-file re-reads of the hot file
	dpRandReads = 400 // random single-page reads
)

// dpConfig returns the volume config for one ablation arm.
func dpConfig(name string) (core.Config, error) {
	cfg := fsdBenchConfig()
	switch name {
	case "no-cache":
		cfg.DataCachePages = -1
	case "cache":
		cfg.DataCachePages = 4096
		cfg.ReadAhead = -1
	case "cache+ra":
		cfg.DataCachePages = 4096
	default:
		return cfg, fmt.Errorf("bench: unknown datapath config %q", name)
	}
	return cfg, nil
}

// dpEnv builds the two target files: "big" grown 8 pages at a time, and
// "hot" created in one piece.
func dpEnv(cfgName string) (fsdEnv, *core.File, *core.File, error) {
	cfg, err := dpConfig(cfgName)
	if err != nil {
		return fsdEnv{}, nil, nil, err
	}
	fe, err := newFSD(cfg)
	if err != nil {
		return fsdEnv{}, nil, nil, err
	}
	big, err := fe.v.Create("bench/big", workload.Payload(disk.SectorSize, 3))
	if err != nil {
		return fsdEnv{}, nil, nil, err
	}
	for big.Pages() < dpBigPages {
		if err := big.Extend(dpSeqChunk); err != nil {
			return fsdEnv{}, nil, nil, err
		}
	}
	if err := big.WritePages(0, workload.Payload(big.Pages()*disk.SectorSize, 5)); err != nil {
		return fsdEnv{}, nil, nil, err
	}
	hot, err := fe.v.Create("bench/hot", workload.Payload(dpHotPages*disk.SectorSize, 11))
	if err != nil {
		return fsdEnv{}, nil, nil, err
	}
	if err := fe.v.Force(); err != nil {
		return fsdEnv{}, nil, nil, err
	}
	// Verify leaders and drop state so the measurement windows start from
	// cold caches and see no leader-piggyback read.
	if _, err := big.ReadPages(0, 1); err != nil {
		return fsdEnv{}, nil, nil, err
	}
	if _, err := hot.ReadPages(0, 1); err != nil {
		return fsdEnv{}, nil, nil, err
	}
	fe.v.DropCaches()
	return fe, big, hot, nil
}

// dpMeasure runs one workload in a stats window and fills the result cell.
func dpMeasure(fe fsdEnv, cfgName, wl string, run func() error) (DataPathResult, error) {
	ds0 := fe.v.Stats()
	if err := run(); err != nil {
		return DataPathResult{}, err
	}
	ds1 := fe.v.Stats()
	dw := ds1.Disk.Sub(ds0.Disk)
	hits := ds1.Cache.Data.Hits - ds0.Cache.Data.Hits
	misses := ds1.Cache.Data.Misses - ds0.Cache.Data.Misses
	r := DataPathResult{
		Config:           cfgName,
		Workload:         wl,
		Reads:            dw.Reads,
		SectorsRead:      dw.SectorsRead,
		MergeableOps:     dw.MergeableOps,
		DiskTimeMS:       float64(dw.BusyTime()) / float64(time.Millisecond),
		CacheHits:        hits,
		CacheMisses:      misses,
		ReadAheadSectors: ds1.Cache.Data.ReadAheadSectors - ds0.Cache.Data.ReadAheadSectors,
		CoalescedReads:   ds1.Cache.Data.CoalescedReads - ds0.Cache.Data.CoalescedReads,
	}
	if hits+misses > 0 {
		r.HitRate = float64(hits) / float64(hits+misses)
	}
	return r, nil
}

// dataPathRun measures the three workloads under one configuration.
func dataPathRun(cfgName string) ([]DataPathResult, error) {
	var out []DataPathResult

	// Sequential: one cold pass over the big file in small chunks.
	fe, big, hot, err := dpEnv(cfgName)
	if err != nil {
		return nil, err
	}
	seq, err := dpMeasure(fe, cfgName, "sequential", func() error {
		for p := 0; p < dpBigPages; p += dpSeqChunk {
			if _, err := big.ReadPages(p, dpSeqChunk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, seq)

	// Random: single-page reads at a fixed pseudo-random sequence, on a
	// fresh cold volume so sequential state cannot leak in.
	fe, big, hot, err = dpEnv(cfgName)
	if err != nil {
		return nil, err
	}
	rnd, err := dpMeasure(fe, cfgName, "random", func() error {
		for i := 0; i < dpRandReads; i++ {
			if _, err := big.ReadPages((i*137)%dpBigPages, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, rnd)

	// Re-read: repeated whole-file reads of the hot file. The first pass
	// warms the cache inside the window, so the steady-state hit rate is
	// (dpRereads-1)/dpRereads at best.
	reread, err := dpMeasure(fe, cfgName, "re-read", func() error {
		for i := 0; i < dpRereads; i++ {
			if _, err := hot.ReadAll(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, reread)
	return out, nil
}

// DataPathReportRun runs the full ablation grid.
func DataPathReportRun() (DataPathReport, error) {
	rep := DataPathReport{
		Clock: "disk_time_ms: simulated milliseconds of device time on the virtual clock; " +
			"everything else: counts and ratios of counts",
		Model: "sequential scan of an Extend-grown file, which is one ascending run: " +
			"no-cache and cache issue one read per 8-page call; read-ahead carries " +
			"the stream window beyond each demand read, into cache frames. " +
			"re-read: write-through cache serves repeat reads without I/O.",
	}
	var seqBase, seqFull DataPathResult
	for _, cfgName := range []string{"no-cache", "cache", "cache+ra"} {
		res, err := dataPathRun(cfgName)
		if err != nil {
			return DataPathReport{}, err
		}
		rep.Results = append(rep.Results, res...)
		for _, r := range res {
			if r.Workload == "sequential" && cfgName == "no-cache" {
				seqBase = r
			}
			if r.Workload == "sequential" && cfgName == "cache+ra" {
				seqFull = r
			}
			if r.Workload == "re-read" && cfgName == "cache+ra" {
				rep.RereadHitRate = r.HitRate
			}
		}
	}
	if seqFull.Reads > 0 {
		rep.SeqReadReduction = float64(seqBase.Reads) / float64(seqFull.Reads)
	}
	return rep, nil
}

// Render is the experiment as benchtab prints it.
func (rep DataPathReport) Render() []Table {
	t := Table{
		ID:     "DataPath",
		Title:  "File-data buffer cache: clustered transfers + sequential read-ahead vs the raw per-run path",
		Header: []string{"Config", "Workload", "Disk reads", "Sectors", "Mergeable", "Disk (ms)", "Hit rate", "Read-ahead", "Coalesced"},
	}
	for _, r := range rep.Results {
		t.Rows = append(t.Rows, []string{
			r.Config, r.Workload, fmt.Sprint(r.Reads), fmt.Sprint(r.SectorsRead),
			fmt.Sprint(r.MergeableOps), fmt.Sprintf("%.1f", r.DiskTimeMS),
			fmt.Sprintf("%.0f%%", r.HitRate*100),
			fmt.Sprint(r.ReadAheadSectors), fmt.Sprint(r.CoalescedReads),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("sequential disk-read reduction (no-cache / cache+ra): %.1fx", rep.SeqReadReduction),
		fmt.Sprintf("re-read hit rate (cache+ra, first pass warms in-window): %.0f%%", rep.RereadHitRate*100),
		rep.Model,
	)
	return []Table{t}
}
