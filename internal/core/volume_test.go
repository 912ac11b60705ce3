package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// testConfig is sized for the 19 MB SmallGeometry test volume.
func testConfig() Config {
	return Config{
		LogSectors: 4 + 3*200,
		NTPages:    256,
		CacheSize:  64,
	}
}

func newTestVolume(t *testing.T) (*Volume, *disk.Disk, *sim.VirtualClock) {
	t.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(d, testConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return v, d, clk
}

func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestCreateReadRoundTrip(t *testing.T) {
	v, _, _ := newTestVolume(t)
	data := payload(1000, 7)
	f, err := v.Create("notes.txt", data)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if f.Size() != 1000 {
		t.Fatalf("Size = %d", f.Size())
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents mismatch")
	}
	// Reopen and read again (exercises leader piggyback verification).
	f2, err := v.Open("notes.txt", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err = f2.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll after open: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents mismatch after reopen")
	}
}

func TestEmptyFile(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 || f.Pages() != 0 {
		t.Fatalf("size=%d pages=%d", f.Size(), f.Pages())
	}
	got, err := f.ReadAll()
	if err != nil || got != nil {
		t.Fatalf("ReadAll on empty: %v %v", got, err)
	}
}

func TestSmallCreateIsOneSynchronousIO(t *testing.T) {
	v, d, _ := newTestVolume(t)
	// Warm up: first create may miss name-table pages.
	if _, err := v.Create("warm", payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if _, err := v.Create("one-byte", []byte{42}); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	// "A file create typically does one I/O synchronously: the
	// combination of the write of the leader and data pages."
	if delta.Writes != 1 {
		t.Fatalf("small create did %d synchronous writes, want 1", delta.Writes)
	}
	if delta.Reads != 0 {
		t.Fatalf("small create did %d reads, want 0", delta.Reads)
	}
}

func TestWarmOpenIsZeroIO(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("f", payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if _, err := v.Open("f", 0); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.Ops != 0 {
		t.Fatalf("warm open did %d I/Os, want 0", delta.Ops)
	}
}

func TestVersioning(t *testing.T) {
	v, _, _ := newTestVolume(t)
	for i := 1; i <= 3; i++ {
		f, err := v.Create("doc", payload(10*i, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		if f.Entry().Version != uint32(i) {
			t.Fatalf("version = %d, want %d", f.Entry().Version, i)
		}
	}
	// Open newest by default.
	f, err := v.Open("doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Entry().Version != 3 || f.Size() != 30 {
		t.Fatalf("newest: v%d size %d", f.Entry().Version, f.Size())
	}
	// Old versions remain readable.
	f1, err := v.Open("doc", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := f1.ReadAll()
	if !bytes.Equal(got, payload(10, 1)) {
		t.Fatal("old version corrupted")
	}
}

func TestKeepPurgesOldVersions(t *testing.T) {
	v, _, _ := newTestVolume(t)
	if _, err := v.Create("k", payload(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := v.SetKeep("k", 2); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 5; i++ {
		if _, err := v.Create("k", payload(10, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// keep=2: versions 4 and 5 survive.
	if _, err := v.Open("k", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("version 3 should be purged: %v", err)
	}
	for _, ver := range []uint32{4, 5} {
		if _, err := v.Open("k", ver); err != nil {
			t.Fatalf("version %d missing: %v", ver, err)
		}
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	v, _, _ := newTestVolume(t)
	if _, err := v.Create("gone", payload(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := v.Delete("gone", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Open("gone", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open of deleted: %v", err)
	}
	if err := v.Delete("gone", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := v.Open("never-existed", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open of never-created: %v", err)
	}
}

func TestDeletedPagesNotReusedUntilCommit(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("victim", payload(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	runs := f.Entry().Runs
	if err := v.Delete("victim", 0); err != nil {
		t.Fatal(err)
	}
	// Before commit the pages are shadowed.
	for _, r := range runs {
		for p := r.Start; p < r.Start+r.Len; p++ {
			if v.VAM().IsFree(int(p)) {
				t.Fatal("deleted page allocatable before commit")
			}
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		for p := r.Start; p < r.Start+r.Len; p++ {
			if !v.VAM().IsFree(int(p)) {
				t.Fatal("deleted page still unavailable after commit")
			}
		}
	}
}

func TestList(t *testing.T) {
	v, _, _ := newTestVolume(t)
	names := []string{"a/1", "a/2", "a/3", "b/1"}
	for _, n := range names {
		if _, err := v.Create(n, payload(10, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := v.List("a/", func(e Entry) bool {
		got = append(got, fmt.Sprintf("%s!%d", e.Name, e.Version))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a/1!1", "a/2!1", "a/3!1"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestSymlink(t *testing.T) {
	v, _, _ := newTestVolume(t)
	e, err := v.CreateLink("remote.doc", "[server]<dir>remote.doc!4")
	if err != nil {
		t.Fatal(err)
	}
	if e.Class != SymLink || e.LinkTarget != "[server]<dir>remote.doc!4" {
		t.Fatalf("link entry: %+v", e)
	}
	if _, err := v.Open("remote.doc", 0); !errors.Is(err, ErrIsSymlink) {
		t.Fatalf("open of symlink: %v", err)
	}
	st, err := v.Stat("remote.doc", 0)
	if err != nil || st.LinkTarget == "" {
		t.Fatalf("stat of symlink: %v", err)
	}
}

func TestCachedOpenUpdatesLastUsed(t *testing.T) {
	v, _, clk := newTestVolume(t)
	if _, err := v.CreateCached("cachefile", payload(100, 3)); err != nil {
		t.Fatal(err)
	}
	st0, _ := v.Stat("cachefile", 0)
	clk.Advance(10 * time.Second)
	if _, err := v.Open("cachefile", 0); err != nil {
		t.Fatal(err)
	}
	st1, _ := v.Stat("cachefile", 0)
	if st1.LastUsed <= st0.LastUsed {
		t.Fatal("cached open did not update last-used time")
	}
}

func TestTouch(t *testing.T) {
	v, _, clk := newTestVolume(t)
	if _, err := v.Create("t", payload(10, 0)); err != nil {
		t.Fatal(err)
	}
	st0, _ := v.Stat("t", 0)
	clk.Advance(time.Minute)
	if err := v.Touch("t", 0); err != nil {
		t.Fatal(err)
	}
	st1, _ := v.Stat("t", 0)
	if st1.LastUsed <= st0.LastUsed {
		t.Fatal("Touch did not update last-used")
	}
}

func TestWritePages(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("w", payload(4*512, 1))
	if err != nil {
		t.Fatal(err)
	}
	newPage := payload(512, 99)
	if err := f.WritePages(2, newPage); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadPages(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newPage) {
		t.Fatal("WritePages not visible")
	}
	// Out-of-range writes rejected.
	if err := f.WritePages(4, newPage); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestExtendContract(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("grow", payload(512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Extend(3); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 4 {
		t.Fatalf("pages after extend = %d", f.Pages())
	}
	if err := f.WritePages(3, payload(512, 9)); err != nil {
		t.Fatalf("write to extended page: %v", err)
	}
	if err := f.Contract(1); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 1 {
		t.Fatalf("pages after contract = %d", f.Pages())
	}
	if err := f.Contract(5); err == nil {
		t.Fatal("contract beyond size accepted")
	}
	// The entry persisted.
	st, _ := v.Stat("grow", 0)
	if st.Pages() != 1 {
		t.Fatalf("persisted pages = %d", st.Pages())
	}
}

func TestEmptyFileDeferredLeaderThenWrite(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("deferred", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Extend(2); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	// The write of page 0 should piggyback the pending leader: 1 I/O.
	if err := f.WritePages(0, payload(1024, 5)); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.Writes != 1 {
		t.Fatalf("piggybacked write did %d I/Os, want 1", delta.Writes)
	}
	// Leader must now be home: read and verify.
	got, err := f.ReadPages(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(1024, 5)) {
		t.Fatal("data mismatch after piggyback write")
	}
}

func TestInvalidNames(t *testing.T) {
	v, _, _ := newTestVolume(t)
	for _, name := range []string{"", "has\x00nul", string(make([]byte, 300))} {
		if _, err := v.Create(name, nil); err == nil {
			t.Fatalf("bad name %q accepted", name)
		}
	}
}

func TestShutdownThenUse(t *testing.T) {
	v, _, _ := newTestVolume(t)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: %v", err)
	}
	if err := v.Shutdown(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double shutdown: %v", err)
	}
}

func TestCleanShutdownMountLoadsVAM(t *testing.T) {
	v, d, _ := newTestVolume(t)
	for i := 0; i < 20; i++ {
		if _, err := v.Create(fmt.Sprintf("f%d", i), payload(300, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := v.VAM().FreeCount()
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v2, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if !ms.CleanShutdown || ms.VAMReconstructed {
		t.Fatalf("mount stats after clean shutdown: %+v", ms)
	}
	if v2.VAM().FreeCount() != freeBefore {
		t.Fatalf("FreeCount %d != %d", v2.VAM().FreeCount(), freeBefore)
	}
	// All files intact.
	for i := 0; i < 20; i++ {
		f, err := v2.Open(fmt.Sprintf("f%d", i), 0)
		if err != nil {
			t.Fatalf("open f%d: %v", i, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, payload(300, byte(i))) {
			t.Fatalf("f%d corrupted: %v", i, err)
		}
	}
}

func TestCrashRecoveryPreservesCommittedFiles(t *testing.T) {
	v, d, _ := newTestVolume(t)
	for i := 0; i < 30; i++ {
		if _, err := v.Create(fmt.Sprintf("c%d", i), payload(700, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	v2, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount after crash: %v", err)
	}
	if ms.CleanShutdown {
		t.Fatal("crash reported as clean shutdown")
	}
	if !ms.VAMReconstructed {
		t.Fatal("VAM not reconstructed after crash")
	}
	if ms.LogRecords == 0 {
		t.Fatal("no log records replayed")
	}
	for i := 0; i < 30; i++ {
		f, err := v2.Open(fmt.Sprintf("c%d", i), 0)
		if err != nil {
			t.Fatalf("open c%d after recovery: %v", i, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, payload(700, byte(i))) {
			t.Fatalf("c%d corrupted after recovery: %v", i, err)
		}
	}
}

func TestUnforcedCreateLostAtCrashButConsistent(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("durable", payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	// This one rides the group-commit window and is never forced.
	if _, err := v.Create("ephemeral", payload(100, 2)); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Open("durable", 0); err != nil {
		t.Fatalf("durable file lost: %v", err)
	}
	if _, err := v2.Open("ephemeral", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unforced create survived crash: %v", err)
	}
	// Its pages must not leak: VAM reconstruction freed them.
	if _, err := v2.Create("reuse", payload(100, 3)); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
}

// TestNegativeIntervalForcesEveryUpdate: a negative GroupCommitInterval is
// the synchronous ablation — every create forces the log once, even with
// AdaptiveCommit set, whose controller then has no deadline to adapt and is
// reported off.
func TestNegativeIntervalForcesEveryUpdate(t *testing.T) {
	cfg := testConfig()
	cfg.GroupCommitInterval, cfg.AdaptiveCommit = -1, true
	v, _, _ := newTestVolumeWith(t, cfg)
	for i := 1; i <= 5; i++ {
		if _, err := v.Create(fmt.Sprintf("sync/f%d", i), payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
		if got := v.Log().Stats().Forces; got != i {
			t.Fatalf("after %d creates the log forced %d times, want %d", i, got, i)
		}
	}
	if c := v.Stats().Commit; c.Adaptive || c.ForceDeadline != 0 {
		t.Fatalf("Commit.Adaptive = %v, ForceDeadline = %v; want false, 0", c.Adaptive, c.ForceDeadline)
	}
}

func TestGroupCommitWindowIsHalfSecond(t *testing.T) {
	v, d, clk := newTestVolume(t)
	if _, err := v.Create("a", payload(10, 1)); err != nil {
		t.Fatal(err)
	}
	// Within the window nothing is forced.
	if v.Log().Stats().Forces != 0 {
		t.Fatal("log forced during the commit window")
	}
	clk.Advance(600 * time.Millisecond)
	if err := v.Tick(); err != nil {
		t.Fatal(err)
	}
	if v.Log().Stats().Forces != 1 {
		t.Fatal("log not forced after half-second window")
	}
	// A crash now preserves the create.
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Open("a", 0); err != nil {
		t.Fatalf("file committed by timer force lost: %v", err)
	}
}

func TestNameTableSurvivesSingleCopyDamage(t *testing.T) {
	v, d, _ := newTestVolume(t)
	for i := 0; i < 50; i++ {
		if _, err := v.Create(fmt.Sprintf("dmg%02d", i), payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Damage a sector in the middle of name-table copy A.
	lay := v.lay
	d.CorruptSectors(lay.ntA+2*NTPageSectors, 2)
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount with damaged copy A: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := v2.Open(fmt.Sprintf("dmg%02d", i), 0); err != nil {
			t.Fatalf("file dmg%02d unreadable with one damaged copy: %v", i, err)
		}
	}
}

func TestLeaderDetectsCrossCheckFailure(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("checked", payload(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entry()
	addr, _ := e.LeaderAddr()
	// A wild write smashes the leader silently.
	d.SmashSector(addr, payload(512, 0xEE), nil)
	f2, err := v.Open("checked", 0)
	if err != nil {
		t.Fatal(err) // open itself does no I/O
	}
	if _, err := f2.ReadAll(); err == nil {
		t.Fatal("smashed leader not detected on first access")
	}
}

func TestRecoveryDiscardsStaleLeaderImages(t *testing.T) {
	// A leader image for a deleted file whose pages were reallocated
	// must not be replayed over the new owner.
	v, d, _ := newTestVolume(t)
	// Empty create defers the leader (image in log, not home).
	f, err := v.Create("old", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	if err := v.Delete("old", 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil { // commit: pages reusable
		t.Fatal(err)
	}
	g, err := v.Create("new", payload(900, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := v2.Open("new", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.ReadAll()
	if err != nil {
		t.Fatalf("new file unreadable after recovery: %v", err)
	}
	if !bytes.Equal(got, payload(900, 9)) {
		t.Fatal("stale leader image stomped the new file")
	}
	_ = g
}

func TestMountAfterBothRootCopiesDamaged(t *testing.T) {
	v, d, _ := newTestVolume(t)
	v.Shutdown()
	d.CorruptSectors(0, 1)
	d.CorruptSectors(2, 1)
	if _, _, err := Mount(d, testConfig()); !errors.Is(err, ErrRootLost) {
		t.Fatalf("mount with both roots gone: %v", err)
	}
}

func TestMountWithOneRootCopyDamaged(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("r", payload(10, 1)); err != nil {
		t.Fatal(err)
	}
	v.Shutdown()
	d.CorruptSectors(0, 1) // primary root page
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("mount with damaged primary root: %v", err)
	}
	if _, err := v2.Open("r", 0); err != nil {
		t.Fatal(err)
	}
}

func TestVAMReconstructionMatchesTracked(t *testing.T) {
	v, d, _ := newTestVolume(t)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		if _, err := v.Create(fmt.Sprintf("m%d", i), payload(rng.Intn(5000)+1, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 3 {
		if err := v.Delete(fmt.Sprintf("m%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	want := v.VAM().FreeCount()
	v.Crash()
	d.Revive()
	v2, ms, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !ms.VAMReconstructed {
		t.Fatal("expected reconstruction")
	}
	if got := v2.VAM().FreeCount(); got != want {
		t.Fatalf("reconstructed FreeCount %d != tracked %d", got, want)
	}
}

func TestCrashDuringBulkCreatesLeavesConsistentTree(t *testing.T) {
	// Crash at an arbitrary point mid-burst; after recovery the name
	// table must be structurally sound and every readable file intact.
	for _, cutoff := range []int{3, 17, 40} {
		v, d, _ := newTestVolume(t)
		written := map[string][]byte{}
		for i := 0; i < 60; i++ {
			name := fmt.Sprintf("bulk%03d", i)
			data := payload(200+i*13, byte(i))
			if _, err := v.Create(name, data); err != nil {
				t.Fatal(err)
			}
			written[name] = data
			if i == cutoff {
				v.Force()
			}
		}
		v.Crash()
		d.Revive()
		v2, _, err := Mount(d, testConfig())
		if err != nil {
			t.Fatalf("cutoff %d: Mount: %v", cutoff, err)
		}
		if err := v2.nt.Check(); err != nil {
			t.Fatalf("cutoff %d: tree corrupt after recovery: %v", cutoff, err)
		}
		// Everything up to the force must exist and be intact.
		for i := 0; i <= cutoff; i++ {
			name := fmt.Sprintf("bulk%03d", i)
			f, err := v2.Open(name, 0)
			if err != nil {
				t.Fatalf("cutoff %d: committed %s lost: %v", cutoff, name, err)
			}
			got, err := f.ReadAll()
			if err != nil || !bytes.Equal(got, written[name]) {
				t.Fatalf("cutoff %d: %s corrupted: %v", cutoff, name, err)
			}
		}
	}
}

func TestUIDsNeverReusedAcrossMounts(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f1, err := v.Create("u1", payload(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	uid1 := f1.Entry().UID
	v.Shutdown()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := v2.Create("u2", payload(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Entry().UID <= uid1 {
		t.Fatalf("uid %d not greater than pre-mount uid %d", f2.Entry().UID, uid1)
	}
}

func TestLargeFileMultiRun(t *testing.T) {
	v, _, _ := newTestVolume(t)
	// Fragment the big area a little, then create a file large enough
	// that it may span runs.
	data := payload(200*512, 3)
	f, err := v.Create("big", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file round trip failed")
	}
}

func TestOpsCounters(t *testing.T) {
	v, _, _ := newTestVolume(t)
	v.Create("x", payload(10, 0))
	v.Open("x", 0)
	v.Delete("x", 0)
	v.List("", func(Entry) bool { return true })
	ops := v.Stats().Ops
	if ops.Creates != 1 || ops.Opens != 1 || ops.Deletes != 1 || ops.Lists != 1 {
		t.Fatalf("ops = %+v", ops)
	}
}
