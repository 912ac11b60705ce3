package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

const (
	logBase = 1000
	logSize = 4 + 3*200 // anchors + three 200-sector thirds
)

func newTestLog(tb testing.TB, cfg Config) (*Log, *disk.Disk, *sim.VirtualClock) {
	tb.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := Format(d, logBase, logSize, clk, cfg)
	if err != nil {
		tb.Fatalf("Format: %v", err)
	}
	return l, d, clk
}

func img(kind uint8, target uint64, fill byte) PageImage {
	data := make([]byte, disk.SectorSize)
	for i := range data {
		data[i] = fill
	}
	return PageImage{Kind: kind, Target: target, Data: data}
}

// collectApplier records replayed images, last-writer-wins per target.
type collectApplier struct {
	last  map[imageKey][]byte
	order []imageKey
}

func newCollect() *collectApplier { return &collectApplier{last: map[imageKey][]byte{}} }

func (c *collectApplier) apply(kind uint8, target uint64, data []byte) error {
	k := imageKey{kind, target}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.last[k] = cp
	c.order = append(c.order, k)
	return nil
}

// recoverLog replays l through apply and then resets it, as a writable mount
// does once the replayed images are home.
func recoverLog(l *Log, apply Applier) (RecoveryStats, error) {
	rs, err := l.Replay(apply)
	if err != nil {
		return rs, err
	}
	return rs, l.CompleteRecovery()
}

func reopen(t *testing.T, d *disk.Disk, clk sim.Clock, cfg Config) (*Log, *collectApplier, RecoveryStats) {
	t.Helper()
	l, err := Open(d, logBase, logSize, clk, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c := newCollect()
	rs, err := recoverLog(l, c.apply)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return l, c, rs
}

func TestFormatTooSmall(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if _, err := Format(d, 0, MinSize(3)-1, clk, Config{}); err == nil {
		t.Fatal("undersized log accepted")
	}
}

func TestEmptyLogRecoversNothing(t *testing.T) {
	_, d, clk := newTestLog(t, Config{Interval: time.Second})
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 0 || len(c.last) != 0 {
		t.Fatalf("empty log replayed %d records", rs.Records)
	}
}

func TestForceAndRecoverSingleImage(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	if _, err := l.Append(img(KindLeader, 42, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 1 || st.SectorsWritten != 7 {
		t.Fatalf("records=%d sectors=%d, want 1 record of 7 sectors", st.Records, st.SectorsWritten)
	}
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 1 || rs.Images != 1 {
		t.Fatalf("recovery: %+v", rs)
	}
	got := c.last[imageKey{KindLeader, 42}]
	if got == nil || got[0] != 0xAA {
		t.Fatal("image not recovered")
	}
}

func TestRecordSizeArithmetic(t *testing.T) {
	// The paper: a 1-page record is 7 sectors; a 14-page record is 33; the
	// largest observed is 83 (= 39 pages).
	for _, tc := range []struct{ n, sectors int }{{1, 7}, {14, 33}, {39, 83}} {
		l, _, _ := newTestLog(t, Config{Interval: time.Second})
		var ims []PageImage
		for i := 0; i < tc.n; i++ {
			ims = append(ims, img(KindNameTable, uint64(i), byte(i)))
		}
		if _, err := l.Append(ims...); err != nil {
			t.Fatal(err)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		if st.Records != 1 || st.SectorsWritten != tc.sectors {
			t.Fatalf("n=%d: records=%d sectors=%d, want 1 record of %d",
				tc.n, st.Records, st.SectorsWritten, tc.sectors)
		}
	}
}

func TestOversizedBatchSplitsIntoRecords(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	var ims []PageImage
	for i := 0; i < MaxImagesPerRecord+5; i++ {
		ims = append(ims, img(KindNameTable, uint64(i), byte(i)))
	}
	if _, err := l.Append(ims...); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != 2 {
		t.Fatalf("records = %d, want 2", st.Records)
	}
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 2 || len(c.last) != MaxImagesPerRecord+5 {
		t.Fatalf("recovery: %+v, images %d", rs, len(c.last))
	}
}

func TestGroupCommitElidesHotPages(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	// Update the same page 50 times within one interval: one image.
	for i := 0; i < 50; i++ {
		if _, err := l.Append(img(KindNameTable, 7, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.PendingImages(); n != 1 {
		t.Fatalf("pending images = %d, want 1", n)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.ImagesStaged != 50 || st.ImagesLogged != 1 || st.ImagesElided != 49 {
		t.Fatalf("staged=%d logged=%d elided=%d", st.ImagesStaged, st.ImagesLogged, st.ImagesElided)
	}
}

func TestMaybeForceHonorsInterval(t *testing.T) {
	l, _, clk := newTestLog(t, Config{Interval: 500 * time.Millisecond})
	if _, err := l.Append(img(KindLeader, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.MaybeForce(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Forces != 0 {
		t.Fatal("forced before interval elapsed")
	}
	clk.Advance(600 * time.Millisecond)
	if err := l.MaybeForce(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Forces != 1 {
		t.Fatal("did not force after interval elapsed")
	}
}

func TestZeroIntervalForcesEveryAppend(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: 0})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(img(KindLeader, uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Forces != 3 {
		t.Fatalf("forces = %d, want 3", st.Forces)
	}
}

func TestEmptyForceWritesNothing(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	committed := 0
	l.OnCommit = func(uint64) { committed++ }
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != 0 {
		t.Fatal("empty force wrote a record")
	}
	if committed != 1 {
		t.Fatal("OnCommit not fired on empty force")
	}
}

func TestOnCommitFires(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	fired := 0
	l.OnCommit = func(uint64) { fired++ }
	l.Append(img(KindLeader, 1, 1))
	l.Force()
	if fired != 1 {
		t.Fatalf("OnCommit fired %d times", fired)
	}
}

func TestThirdCrossingCallsFlushHook(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	var flushedThirds []int
	l.FlushHook = func(third int) (int, error) {
		flushedThirds = append(flushedThirds, third)
		return 1, nil
	}
	// Each 10-image record is 25 sectors; a 200-sector third holds 8.
	for i := 0; i < 20; i++ {
		var ims []PageImage
		for j := 0; j < 10; j++ {
			ims = append(ims, img(KindNameTable, uint64(i*100+j), byte(i)))
		}
		l.Append(ims...)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if len(flushedThirds) == 0 {
		t.Fatal("flush hook never called despite filling thirds")
	}
	if st := l.Stats(); st.ThirdCrossings != len(flushedThirds) || st.HomeFlushes != len(flushedThirds) {
		t.Fatalf("crossings=%d flushes=%d hooks=%d", st.ThirdCrossings, st.HomeFlushes, len(flushedThirds))
	}
	// Crossings rotate 1, 2, 0, 1, 2, ...
	for i := 1; i < len(flushedThirds); i++ {
		if flushedThirds[i] != (flushedThirds[i-1]+1)%3 {
			t.Fatalf("third sequence %v not cyclic", flushedThirds)
		}
	}
}

func TestRecoveryAfterWrapSeesRecentRecords(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.FlushHook = func(int) (int, error) { return 0, nil }
	// Write far more than the log holds; every record updates target i.
	const total = 60
	for i := 0; i < 60; i++ {
		var ims []PageImage
		for j := 0; j < 10; j++ {
			ims = append(ims, img(KindNameTable, uint64(i*10+j), byte(i)))
		}
		l.Append(ims...)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records == 0 {
		t.Fatal("no records recovered after wrap")
	}
	if rs.Records >= total {
		t.Fatalf("recovered %d records, but the log cannot hold all %d", rs.Records, total)
	}
	// The newest record's images must be present.
	k := imageKey{KindNameTable, uint64(59*10 + 9)}
	if got := c.last[k]; got == nil || got[0] != 59 {
		t.Fatal("newest record's images missing after wrapped recovery")
	}
}

func TestTornRecordDiscarded(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 1, 0x11))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Second force is torn: only 3 of 7 sectors make it.
	d.SetWriteFault(disk.FailAfterWrites(0, 3))
	l.Append(img(KindLeader, 2, 0x22))
	if err := l.Force(); !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("torn force: %v, want ErrHalted", err)
	}
	d.Revive()
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 1 {
		t.Fatalf("recovered %d records, want 1 (torn one discarded)", rs.Records)
	}
	if c.last[imageKey{KindLeader, 1}] == nil {
		t.Fatal("intact record lost")
	}
	if c.last[imageKey{KindLeader, 2}] != nil {
		t.Fatal("torn record replayed")
	}
	if rs.TornRecords != 1 {
		t.Fatalf("TornRecords = %d, want 1 (header landed, end missing)", rs.TornRecords)
	}
	if rs.GapBreaks != 0 {
		t.Fatalf("GapBreaks = %d on a cleanly torn tail", rs.GapBreaks)
	}
}

func TestDamagedImageRepairedFromCopy(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 9, 0x77))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Damage the first data copy (record starts at offset 0: header,
	// blank, header copy, data at +3).
	d.CorruptSectors(logBase+4+3, 1)
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 1 || rs.Repaired == 0 {
		t.Fatalf("recovery: %+v, want repair from copy", rs)
	}
	got := c.last[imageKey{KindLeader, 9}]
	if got == nil || got[0] != 0x77 {
		t.Fatal("image not repaired from copy")
	}
}

// TestDeadLogSectorChargedOnce: a replay over a record whose first copy of
// one image stays unreadable reads the body past it and takes the twin. The
// dead sector's retries are reported once — ReadRetries of them — and no
// sector of the record area is read twice but the dead one, by its retries:
// not the prefix the failed transfer had delivered, not the dead sector again.
func TestDeadLogSectorChargedOnce(t *testing.T) {
	const retries = 2
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	var imgs []PageImage
	for i := 0; i < 6; i++ {
		imgs = append(imgs, img(KindNameTable, uint64(i), byte(0x40+i)))
	}
	l.Append(imgs...)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	recBase := logBase + anchorSectors
	dead := recBase + 3 + 2 // first copy of image 2
	d.CorruptSectors(dead, 1)

	lr, err := Open(d, logBase, logSize, clk, Config{ReadRetries: retries})
	if err != nil {
		t.Fatal(err)
	}
	charged := 0
	lr.OnReadFault = func(retried int, _ error) { charged += retried }
	reads := map[int]int{} // record-area sector → times transferred
	d.SetOpObserver(func(e disk.OpEvent) {
		if e.Write {
			return
		}
		end := e.Addr + e.Sectors
		if !e.OK { // the transfer stopped at the dead sector
			end = min(end, dead+1)
		}
		for a := max(e.Addr, recBase); a < end; a++ {
			reads[a]++
		}
	})
	c := newCollect()
	rs, err := lr.Replay(c.apply)
	if err != nil {
		t.Fatal(err)
	}
	d.SetOpObserver(nil)
	if charged != retries {
		t.Fatalf("OnReadFault reported %d retries, want %d (the dead sector's, once)", charged, retries)
	}
	for a, k := range reads {
		want := 1
		if a == dead {
			want += retries
		}
		if k != want {
			t.Fatalf("sector %d read %d times, want %d (dead sector %d)", a, k, want, dead)
		}
	}
	if rs.Records != 1 || rs.Images != len(imgs) || rs.Repaired != 1 {
		t.Fatalf("replay: %+v, want 1 record, %d images, 1 repaired", rs, len(imgs))
	}
	for i, im := range imgs {
		if got := c.last[imageKey{KindNameTable, uint64(i)}]; !bytes.Equal(got, im.Data) {
			t.Fatalf("image %d not applied intact", i)
		}
	}
}

func TestDamagedHeaderRepairedFromCopy(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 9, 0x77))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(logBase+4+0, 1) // header sector
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 1 {
		t.Fatalf("recovery after header damage: %+v", rs)
	}
	if c.last[imageKey{KindLeader, 9}] == nil {
		t.Fatal("record lost to single header damage")
	}
}

func TestAnchorCopyUsedWhenPrimaryDamaged(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 3, 0x33))
	l.Force()
	d.CorruptSectors(logBase+0, 1)
	_, c, _ := reopen(t, d, clk, Config{})
	if c.last[imageKey{KindLeader, 3}] == nil {
		t.Fatal("recovery failed with damaged primary anchor")
	}
}

func TestBothAnchorsLost(t *testing.T) {
	_, d, clk := newTestLog(t, Config{Interval: time.Second})
	d.CorruptSectors(logBase+0, 1)
	d.CorruptSectors(logBase+2, 1)
	if _, err := Open(d, logBase, logSize, clk, Config{}); !errors.Is(err, ErrAnchorLost) {
		t.Fatalf("Open with both anchors damaged: %v, want ErrAnchorLost", err)
	}
}

func TestLogResetAfterRecovery(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 1, 0x11))
	l.Force()
	l2, _, _ := reopen(t, d, clk, Config{Interval: time.Second})
	// After recovery the log is empty; new appends are recoverable and
	// old records are not replayed again.
	l2.Append(img(KindLeader, 2, 0x22))
	if err := l2.Force(); err != nil {
		t.Fatal(err)
	}
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 1 {
		t.Fatalf("recovered %d records, want only the post-reset one", rs.Records)
	}
	if c.last[imageKey{KindLeader, 1}] != nil {
		t.Fatal("pre-reset record replayed after reset")
	}
	if c.last[imageKey{KindLeader, 2}] == nil {
		t.Fatal("post-reset record missing")
	}
}

func TestUnforcedAppendLostAtCrash(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Hour})
	l.Append(img(KindLeader, 5, 0x55))
	// No force: crash now.
	d.Halt()
	d.Revive()
	_, c, _ := reopen(t, d, clk, Config{})
	if c.last[imageKey{KindLeader, 5}] != nil {
		t.Fatal("unforced append survived crash")
	}
}

func TestReplayOrderIsLogOrder(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	// Two forces updating the same target: recovery must apply in order
	// so the later value wins.
	l.Append(img(KindNameTable, 1, 0x01))
	l.Force()
	l.Append(img(KindNameTable, 1, 0x02))
	l.Force()
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 2 {
		t.Fatalf("records = %d", rs.Records)
	}
	if got := c.last[imageKey{KindNameTable, 1}]; got[0] != 0x02 {
		t.Fatalf("final value %x, want 02", got[0])
	}
}

func TestAppendRejectsWrongSize(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	if _, err := l.Append(PageImage{Kind: KindLeader, Target: 1, Data: []byte("short")}); err == nil {
		t.Fatal("short image accepted")
	}
}

// Property: running the full cache protocol — dirty pages tagged with the
// third they were last logged into, flushed home when that third is about to
// be overwritten — the state reconstructed after a crash (home store overlaid
// with replayed images) equals the last *committed* value of every target,
// for any sequence of updates and forces, including ones that wrap the log
// several times.
func TestQuickRecoveryMatchesLastCommitted(t *testing.T) {
	f := func(ops []struct {
		Target uint8
		Fill   byte
		Cut    bool // force after this op
	}) bool {
		clk := sim.NewVirtualClock()
		d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
		if err != nil {
			return false
		}
		l, err := Format(d, logBase, logSize, clk, Config{Interval: time.Hour})
		if err != nil {
			return false
		}
		// The home locations on disk: the hook writes there what the
		// log's table hands it.
		home := map[imageKey][]byte{}
		l.FlushHook = func(int) (int, error) {
			for _, im := range l.Due() {
				home[imageKey{im.Kind, im.Target}] = bytes.Clone(im.Data)
			}
			return len(l.Due()), nil
		}
		committed := map[imageKey][]byte{}
		staged := map[imageKey][]byte{}
		for _, o := range ops {
			im := img(KindNameTable, uint64(o.Target%16), o.Fill)
			k := imageKey{KindNameTable, uint64(o.Target % 16)}
			staged[k] = im.Data
			if _, err := l.Append(im); err != nil {
				return false
			}
			if o.Cut {
				if err := l.Force(); err != nil {
					return false
				}
				for sk, sv := range staged {
					committed[sk] = sv
				}
				staged = map[imageKey][]byte{}
			}
		}
		// Crash: reconstruct from home + log replay.
		lr, err := Open(d, logBase, logSize, clk, Config{})
		if err != nil {
			return false
		}
		recon := map[imageKey][]byte{}
		for k, v := range home {
			recon[k] = v
		}
		if _, err := recoverLog(lr, func(kind uint8, target uint64, data []byte) error {
			cp := make([]byte, len(data))
			copy(cp, data)
			recon[imageKey{kind, target}] = cp
			return nil
		}); err != nil {
			return false
		}
		for k, v := range committed {
			if got := recon[k]; got == nil || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMinSize(t *testing.T) {
	if MinSize(3) != 4+3*83 {
		t.Fatalf("MinSize(3) = %d", MinSize(3))
	}
	if MinSize(0) != MinSize(3) {
		t.Fatal("MinSize(0) should default to thirds")
	}
}

func TestStatsString(t *testing.T) {
	// Smoke test the stats fields referenced by benchmarks.
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 1, 1))
	l.Force()
	st := l.Stats()
	if st.MaxRecordSectors != 7 {
		t.Fatalf("MaxRecordSectors = %d", st.MaxRecordSectors)
	}
	l.ResetStats()
	if l.Stats().Forces != 0 {
		t.Fatal("ResetStats did not clear")
	}
	_ = fmt.Sprintf("%+v", st)
}
