// Benchmarks, one group per paper table. Each benchmark drives the full
// file-system stack on the simulated 300 MB volume and reports, besides the
// Go-level ns/op, the *simulated* cost that corresponds to the paper's
// numbers: sim-ms/op (Tables 2 and 5) or io/op (Tables 3 and 4).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package cedarfs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/unixfs"
	"repro/internal/workload"
)

func newFSDBench(b *testing.B) (*core.Volume, *disk.Disk, *sim.VirtualClock) {
	b.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.Format(d, core.Config{NTPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	return v, d, clk
}

func newCFSBench(b *testing.B) (*cfs.Volume, *disk.Disk, *sim.VirtualClock) {
	b.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		b.Fatal(err)
	}
	v, err := cfs.Format(d, cfs.Config{NTPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	return v, d, clk
}

func newBSDBench(b *testing.B) (*unixfs.FS, *disk.Disk, *sim.VirtualClock) {
	b.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := unixfs.Format(d, unixfs.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return fs, d, clk
}

func reportSimMs(b *testing.B, clk *sim.VirtualClock, start int64) {
	b.Helper()
	elapsed := clk.Now().Milliseconds() - start
	b.ReportMetric(float64(elapsed)/float64(b.N), "sim-ms/op")
}

// ---- Table 2: wall-clock operations ----

func BenchmarkTable2_SmallCreate_FSD(b *testing.B) {
	v, _, clk := newFSDBench(b)
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if _, err := v.Create(fmt.Sprintf("b/c%07d", i), []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_SmallCreate_CFS(b *testing.B) {
	v, _, clk := newCFSBench(b)
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if _, err := v.Create(fmt.Sprintf("b/c%07d", i), []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_Open_FSD(b *testing.B) {
	v, _, clk := newFSDBench(b)
	const files = 512
	for i := 0; i < files; i++ {
		if _, err := v.Create(fmt.Sprintf("b/o%04d", i), []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if _, err := v.Open(fmt.Sprintf("b/o%04d", i%files), 0); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_Open_CFS(b *testing.B) {
	v, _, clk := newCFSBench(b)
	const files = 512
	for i := 0; i < files; i++ {
		if _, err := v.Create(fmt.Sprintf("b/o%04d", i), []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if _, err := v.Open(fmt.Sprintf("b/o%04d", i%files), 0); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_SmallDelete_FSD(b *testing.B) {
	v, _, clk := newFSDBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := v.Create(fmt.Sprintf("b/d%07d", i), []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if err := v.Delete(fmt.Sprintf("b/d%07d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_SmallDelete_CFS(b *testing.B) {
	v, _, clk := newCFSBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := v.Create(fmt.Sprintf("b/d%07d", i), []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if err := v.Delete(fmt.Sprintf("b/d%07d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_ReadPage_FSD(b *testing.B) {
	v, _, clk := newFSDBench(b)
	f, err := v.Create("b/pages", workload.Payload(1_000_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadPages((i*37)%1900, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

func BenchmarkTable2_ReadPage_CFS(b *testing.B) {
	v, _, clk := newCFSBench(b)
	f, err := v.Create("b/pages", workload.Payload(1_000_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := clk.Now().Milliseconds()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadPages((i*37)%1900, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportSimMs(b, clk, start)
}

// ---- Table 3: disk I/Os, CFS vs FSD ----

func BenchmarkTable3_Creates100_FSD(b *testing.B) {
	var ios int
	for i := 0; i < b.N; i++ {
		v, d, _ := newFSDBench(b)
		d.ResetStats()
		if err := workload.SmallCreates(workload.FSDTarget{V: v}, "t3", 100, 500); err != nil {
			b.Fatal(err)
		}
		v.Force()
		ios += d.Stats().Ops
	}
	b.ReportMetric(float64(ios)/float64(b.N), "io/100creates")
}

func BenchmarkTable3_Creates100_CFS(b *testing.B) {
	var ios int
	for i := 0; i < b.N; i++ {
		v, d, _ := newCFSBench(b)
		d.ResetStats()
		if err := workload.SmallCreates(workload.CFSTarget{V: v}, "t3", 100, 500); err != nil {
			b.Fatal(err)
		}
		ios += d.Stats().Ops
	}
	b.ReportMetric(float64(ios)/float64(b.N), "io/100creates")
}

func BenchmarkTable3_MakeDo_FSD(b *testing.B) {
	var ios int
	for i := 0; i < b.N; i++ {
		v, d, _ := newFSDBench(b)
		t := workload.FSDTarget{V: v}
		if err := workload.MakeDoPrepare(t, workload.DefaultMakeDo); err != nil {
			b.Fatal(err)
		}
		v.Force()
		d.ResetStats()
		if err := workload.MakeDoRun(t, workload.DefaultMakeDo, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
		v.Force()
		ios += d.Stats().Ops
	}
	b.ReportMetric(float64(ios)/float64(b.N), "io/makedo")
}

func BenchmarkTable3_MakeDo_CFS(b *testing.B) {
	var ios int
	for i := 0; i < b.N; i++ {
		v, d, _ := newCFSBench(b)
		t := workload.CFSTarget{V: v}
		if err := workload.MakeDoPrepare(t, workload.DefaultMakeDo); err != nil {
			b.Fatal(err)
		}
		d.ResetStats()
		if err := workload.MakeDoRun(t, workload.DefaultMakeDo, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
		ios += d.Stats().Ops
	}
	b.ReportMetric(float64(ios)/float64(b.N), "io/makedo")
}

// ---- Table 4: disk I/Os, FSD vs 4.3 BSD ----

func BenchmarkTable4_Creates100_BSD(b *testing.B) {
	var ios int
	for i := 0; i < b.N; i++ {
		fs, d, _ := newBSDBench(b)
		d.ResetStats()
		if err := workload.SmallCreates(workload.UnixTarget{FS: fs}, "t4", 100, 500); err != nil {
			b.Fatal(err)
		}
		ios += d.Stats().Ops
	}
	b.ReportMetric(float64(ios)/float64(b.N), "io/100creates")
}

func BenchmarkTable4_Read100_BSD(b *testing.B) {
	var ios int
	for i := 0; i < b.N; i++ {
		fs, d, _ := newBSDBench(b)
		t := workload.UnixTarget{FS: fs}
		if err := workload.SmallCreates(t, "t4", 100, 500); err != nil {
			b.Fatal(err)
		}
		fs.DropCaches()
		d.ResetStats()
		if err := workload.ReadFiles(t, "t4", 100); err != nil {
			b.Fatal(err)
		}
		ios += d.Stats().Ops
	}
	b.ReportMetric(float64(ios)/float64(b.N), "io/100reads")
}

// ---- Table 5: sequential bandwidth ----

func BenchmarkTable5_SeqRead_FSD(b *testing.B) {
	v, d, clk := newFSDBench(b)
	f, err := v.Create("t5/big", workload.Payload(4_000_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bw float64
	for i := 0; i < b.N; i++ {
		d.ResetStats()
		start := clk.Now()
		if _, err := f.ReadAll(); err != nil {
			b.Fatal(err)
		}
		bw = float64(d.Stats().TransferTime) / float64(clk.Now()-start)
	}
	b.ReportMetric(bw*100, "%bandwidth")
}

func BenchmarkTable5_SeqRead_BSD(b *testing.B) {
	fs, d, clk := newBSDBench(b)
	if err := fs.Create("/big", workload.Payload(4_000_000, 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bw float64
	for i := 0; i < b.N; i++ {
		fs.DropCaches()
		d.ResetStats()
		start := clk.Now()
		if _, err := fs.ReadAll("/big"); err != nil {
			b.Fatal(err)
		}
		bw = float64(d.Stats().TransferTime) / float64(clk.Now()-start)
	}
	b.ReportMetric(bw*100, "%bandwidth")
}

// ---- Section 5.4: group commit ----

func BenchmarkGroupCommit_BulkUpdate(b *testing.B) {
	var metaIOs int
	for i := 0; i < b.N; i++ {
		v, d, _ := newFSDBench(b)
		t := workload.FSDTarget{V: v}
		if err := workload.BulkUpdatePrepare(t, workload.DefaultBulkUpdate); err != nil {
			b.Fatal(err)
		}
		v.Force()
		d.ResetStats()
		if err := workload.BulkUpdateRun(t, workload.DefaultBulkUpdate); err != nil {
			b.Fatal(err)
		}
		v.Force()
		metaIOs += d.Stats().OpsByClass[disk.ClassMeta]
	}
	b.ReportMetric(float64(metaIOs)/float64(b.N), "meta-io/bulk")
}

// ---- Section 7: recovery ----

func BenchmarkRecovery_FSD(b *testing.B) {
	var simSecs float64
	for i := 0; i < b.N; i++ {
		v, d, _ := newFSDBench(b)
		t := workload.FSDTarget{V: v}
		if _, err := workload.PopulateVolume(t, rand.New(rand.NewSource(2)), 40_000_000, 192*1024); err != nil {
			b.Fatal(err)
		}
		v.Force()
		v.Crash()
		d.Revive()
		_, ms, err := core.Mount(d, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		simSecs += ms.Elapsed.Seconds()
	}
	b.ReportMetric(simSecs/float64(b.N), "sim-s/recovery")
}

func BenchmarkRecovery_Scavenge_CFS(b *testing.B) {
	var simSecs float64
	for i := 0; i < b.N; i++ {
		v, d, _ := newCFSBench(b)
		t := workload.CFSTarget{V: v}
		if _, err := workload.PopulateVolume(t, rand.New(rand.NewSource(2)), 40_000_000, 192*1024); err != nil {
			b.Fatal(err)
		}
		v.Crash()
		d.Revive()
		_, st, err := cfs.Scavenge(d, cfs.Config{})
		if err != nil {
			b.Fatal(err)
		}
		simSecs += st.Elapsed.Seconds()
	}
	b.ReportMetric(simSecs/float64(b.N), "sim-s/scavenge")
}

// ---- Whole tables (each iteration regenerates the table) ----

func BenchmarkTableGen_Table3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableGen_Table4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableGen_Table5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableGen_GroupCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.GroupCommit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableGen_ModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ModelValidation(); err != nil {
			b.Fatal(err)
		}
	}
}
