package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/disk"
	"repro/internal/sim"
)

// destroyNameTable damages every sector of both name-table home copies.
func destroyNameTable(_ *disk.Disk, v *Volume) {
	v.DestroyNameTable()
}

// findFreeRun locates n contiguous free data pages (outside metadata) on a
// volume that is about to shut down; tests use it to hand-plant leaders.
func findFreeRun(t *testing.T, v *Volume, n int) int {
	t.Helper()
	v.vmMu.Lock()
	defer v.vmMu.Unlock()
	run := 0
	for p := v.lay.dataLo; p < v.lay.total; p++ {
		if v.lay.metaRange(p) || !v.vm.IsFree(p) {
			run = 0
			continue
		}
		run++
		if run == n {
			return p - n + 1
		}
	}
	t.Fatalf("no free run of %d pages", n)
	return 0
}

// TestSalvageAfterDoubleNameTableLoss is the issue's acceptance scenario:
// with both name-table copies destroyed, Mount fails and Salvage rebuilds
// the volume with every leader-reachable committed file readable.
func TestSalvageAfterDoubleNameTableLoss(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := map[string][]byte{}
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("sv/f%03d", i)
		data := payload(100+i*211, byte(i)) // spans 1..13 data pages
		if i%9 == 8 {
			data = nil // empty file: leader only
		}
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	for i := 0; i < 30; i += 6 {
		name := fmt.Sprintf("sv/f%03d", i)
		if err := v.Delete(name, 0); err != nil {
			t.Fatal(err)
		}
		delete(files, name)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)
	if _, _, err := Mount(d, testConfig()); err == nil {
		t.Fatal("mount succeeded with both name-table copies destroyed")
	}

	v2, st, err := Salvage(d, testConfig())
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if st.FilesRecovered < len(files) {
		t.Fatalf("FilesRecovered = %d, want >= %d (stats %+v)", st.FilesRecovered, len(files), st)
	}
	if st.FilesPartial != 0 {
		t.Fatalf("unexpected partial recoveries: %+v", st)
	}
	for name, want := range files {
		f, err := v2.Open(name, 0)
		if err != nil {
			t.Fatalf("committed %s lost in salvage: %v", name, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s content wrong after salvage: %v", name, err)
		}
	}
	if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after salvage: %v %v", err, vs.Problems)
	}

	// The salvaged volume is a normal volume: it shuts down cleanly and
	// mounts again, files intact, and supports new work.
	if _, err := v2.Create("sv/after", payload(300, 99)); err != nil {
		t.Fatal(err)
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v3, ms, err := Mount(d, testConfig())
	if err != nil || !ms.CleanShutdown {
		t.Fatalf("remount after salvage: %v (clean=%v)", err, ms.CleanShutdown)
	}
	for name, want := range files {
		f, err := v3.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s lost across remount: %v", name, err)
		}
	}
	if _, err := v3.Open("sv/after", 0); err != nil {
		t.Fatalf("post-salvage create lost: %v", err)
	}
}

// TestSalvagePartialPreamble plants a file whose run table exceeds the
// leader preamble: salvage recovers the preamble runs, clamps the byte
// size, and rewrites the leader to describe the truncated file exactly.
func TestSalvagePartialPreamble(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	if _, err := v.Create("anchor", payload(600, 1)); err != nil {
		t.Fatal(err)
	}
	base := findFreeRun(t, v, 12)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// 10 runs: {base,3} then nine singles — more than the 8-run preamble.
	runs := []alloc.Run{{Start: uint32(base), Len: 3}}
	for i := 0; i < 9; i++ {
		runs = append(runs, alloc.Run{Start: uint32(base + 3 + i), Len: 1})
	}
	e := &Entry{Name: "partial", Version: 1, UID: 5<<32 + 7, ByteSize: 11 * disk.SectorSize, Runs: runs}
	want := payload(11*disk.SectorSize, 42)
	for p := 0; p < 11; p++ {
		addr, err := e.DataAddr(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteSectors(addr, want[p*disk.SectorSize:(p+1)*disk.SectorSize]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteSectors(base, encodeLeader(e)); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)

	v2, st, err := Salvage(d, testConfig())
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if st.FilesPartial != 1 {
		t.Fatalf("FilesPartial = %d, want 1 (stats %+v)", st.FilesPartial, st)
	}
	f, err := v2.Open("partial", 0)
	if err != nil {
		t.Fatalf("partial file not recovered: %v", err)
	}
	ent := f.Entry()
	if len(ent.Runs) != leaderPreamble {
		t.Fatalf("recovered %d runs, want the %d-run preamble", len(ent.Runs), leaderPreamble)
	}
	// Preamble: {base,3} + 7 singles = 10 pages, 9 of them data.
	if f.Size() != 9*disk.SectorSize {
		t.Fatalf("Size = %d, want %d (clamped)", f.Size(), 9*disk.SectorSize)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, want[:9*disk.SectorSize]) {
		t.Fatalf("partial content wrong: %v", err)
	}
	if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify (leader must match the truncated table): %v %v", err, vs.Problems)
	}
}

// TestSalvageConflictNewerWins plants a stale leader — a deleted file's
// ghost with a lower UID — claiming pages a live file owns. The newest
// incarnation keeps the pages; the ghost is dropped.
func TestSalvageConflictNewerWins(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	want := payload(1024, 3)
	if _, err := v.Create("real", want); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open("real", 0)
	if err != nil {
		t.Fatal(err)
	}
	ent := f.Entry()
	base := findFreeRun(t, v, 1)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ghost := &Entry{Name: "ghost", Version: 1, UID: 7, ByteSize: 1024, Runs: []alloc.Run{
		{Start: uint32(base), Len: 1},
		{Start: ent.Runs[0].Start + 1, Len: 2}, // the live file's data pages
	}}
	if ghost.UID >= ent.UID {
		t.Fatalf("test setup: ghost uid %d not older than real uid %d", ghost.UID, ent.UID)
	}
	if err := d.WriteSectors(base, encodeLeader(ghost)); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)

	v2, st, err := Salvage(d, testConfig())
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if st.ConflictsDropped < 1 {
		t.Fatalf("ConflictsDropped = %d, want >= 1 (stats %+v)", st.ConflictsDropped, st)
	}
	if _, err := v2.Open("ghost", 0); err == nil {
		t.Fatal("stale ghost leader resurrected over the live file")
	}
	rf, err := v2.Open("real", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rf.ReadAll(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("live file damaged by conflict resolution: %v", err)
	}
	if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify: %v %v", err, vs.Problems)
	}
}

// TestMountOrSalvage checks the combined entry point takes the normal path
// on a healthy volume and degrades to salvage on a destroyed name table.
func TestMountOrSalvage(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := populate(t, v, 10)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v2, rep, err := Mount(d, testConfig(), AllowSalvage())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvage != nil {
		t.Fatal("healthy volume took the salvage path")
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	destroyNameTable(d, v)
	v3, rep3, err := Mount(d, testConfig(), AllowSalvage())
	if err != nil {
		t.Fatalf("mount with AllowSalvage on destroyed name table: %v", err)
	}
	if ss3 := rep3.Salvage; ss3 == nil || ss3.FilesRecovered < len(files) {
		t.Fatalf("salvage stats %+v, want >= %d files", ss3, len(files))
	}
	for name, want := range files {
		f, err := v3.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s wrong after salvage: %v", name, err)
		}
	}
}

// TestSalvageLayoutWithoutRoot: with both root replicas gone, Salvage
// recomputes the layout from the drive's geometry and timing and the config.
// That must land every region where Format put it — copy B's rotational skew
// included — or the rebuild would write a name table the next mount does not
// find. On fsdbench's drive (DefaultGeometry, 4,096-page table) the skew is 12
// sectors; a single-copy table has none.
func TestSalvageLayoutWithoutRoot(t *testing.T) {
	for _, c := range []struct {
		name string
		geom disk.Geometry
		cfg  Config
		skew int
	}{
		{"test", disk.SmallGeometry, testConfig(), 16},
		{"single-copy", disk.SmallGeometry, Config{NTPages: 256, SingleCopyNT: true}, 0},
		{"fsdbench", disk.DefaultGeometry, Config{NTPages: 4096}, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := disk.New(c.geom, disk.DefaultParams, sim.NewVirtualClock())
			if err != nil {
				t.Fatal(err)
			}
			v, err := Format(d, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantB := v.lay.ntA
			if !c.cfg.SingleCopyNT {
				wantB += v.lay.ntPages*NTPageSectors + c.skew
			}
			if v.lay.ntB != wantB || v.lay.vamBase != v.lay.ntB+v.lay.ntPages*NTPageSectors {
				t.Fatalf("copy A at %d, copy B at %d, VAM at %d: want copy B at %d (skew %d) and the VAM right after it",
					v.lay.ntA, v.lay.ntB, v.lay.vamBase, wantB, c.skew)
			}
			if err := v.Shutdown(); err != nil {
				t.Fatal(err)
			}
			d.CorruptSectors(v.lay.rootA, 1)
			d.CorruptSectors(v.lay.rootB, 1)
			if _, err := readRoot(d, 0); err == nil {
				t.Fatal("a root replica survived")
			}
			r, err := newSalvageRun(d, c.cfg, &SalvageStats{})
			if err != nil {
				t.Fatal(err)
			}
			if r.lay != v.lay {
				t.Fatalf("salvage recomputed layout\n%+v\nFormat wrote\n%+v", r.lay, v.lay)
			}
		})
	}
}
