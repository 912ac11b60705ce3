package wal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

func TestAlternativeDivisionCounts(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		clk := sim.NewVirtualClock()
		d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
		size := 4 + k*200
		l, err := Format(d, logBase, size, clk, Config{Interval: time.Second, Thirds: k})
		if err != nil {
			t.Fatalf("thirds=%d: %v", k, err)
		}
		l.FlushHook = func(int) (int, error) { return 0, nil }
		// Enough records to wrap at least twice.
		for i := 0; i < 8*k; i++ {
			var ims []PageImage
			for j := 0; j < 20; j++ {
				ims = append(ims, img(KindNameTable, uint64(i*100+j), byte(i)))
			}
			l.Append(ims...)
			if err := l.Force(); err != nil {
				t.Fatalf("thirds=%d force %d: %v", k, i, err)
			}
		}
		// Recover: the newest record must be present.
		lr, err := Open(d, logBase, size, clk, Config{Thirds: k})
		if err != nil {
			t.Fatal(err)
		}
		c := newCollect()
		rs, err := recoverLog(lr, c.apply)
		if err != nil {
			t.Fatalf("thirds=%d recover: %v", k, err)
		}
		if rs.Records == 0 {
			t.Fatalf("thirds=%d: nothing recovered", k)
		}
		last := imageKey{KindNameTable, uint64((8*k-1)*100 + 19)}
		if c.last[last] == nil {
			t.Fatalf("thirds=%d: newest record lost", k)
		}
	}
}

func TestRecordExactlyFillsThird(t *testing.T) {
	// Third length 200; records of n images take 5+2n sectors. Use
	// n=39 -> 83, then n=39 -> 83, then n=15 -> 35: 83+83+35 = 201 > 200,
	// so the last must move to the next third; craft n=14 -> 33 to land
	// exactly at 199, then one more record must cross cleanly.
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.FlushHook = func(int) (int, error) { return 0, nil }
	sizes := []int{39, 39, 14, 5, 5} // 83+83+33 = 199, then new third
	id := 0
	for _, n := range sizes {
		var ims []PageImage
		for j := 0; j < n; j++ {
			id++
			ims = append(ims, img(KindLeader, uint64(id), byte(id)))
		}
		l.Append(ims...)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != len(sizes) {
		t.Fatalf("recovered %d records, want %d", rs.Records, len(sizes))
	}
	if c.last[imageKey{KindLeader, uint64(id)}] == nil {
		t.Fatal("final image lost across the third boundary")
	}
}

func TestCrashBetweenFlushAndAnchor(t *testing.T) {
	// Crash inside enterThird after the flush hook ran but before (or
	// during) the anchor write: the old anchor still covers everything,
	// so nothing committed is lost.
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	flushed := map[imageKey][]byte{}
	cache := map[imageKey][]byte{}
	armKill := false
	l.FlushHook = func(int) (int, error) {
		for _, im := range l.Due() {
			flushed[imageKey{im.Kind, im.Target}] = bytes.Clone(im.Data)
		}
		if armKill {
			// Halt the device so the anchor write that follows fails.
			d.SetWriteFault(FailNextWrite())
		}
		return len(l.Due()), nil
	}
	// Fill two thirds.
	id := 0
	stage := func(n int) error {
		var ims []PageImage
		for j := 0; j < n; j++ {
			id++
			im := img(KindNameTable, uint64(id), byte(id))
			cache[imageKey{KindNameTable, uint64(id)}] = im.Data
			ims = append(ims, im)
		}
		l.Append(ims...)
		return l.Force()
	}
	for i := 0; i < 4; i++ { // 4 x 45-sector records fill most of 2 thirds
		if err := stage(20); err != nil {
			t.Fatal(err)
		}
	}
	armKill = true
	err := stage(20) // triggers the third transition, killed at the anchor
	if !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("expected halt at anchor write, got %v", err)
	}
	d.Revive()
	// Recover: everything from the four completed forces must be
	// reconstructable from flushed-home pages plus the log.
	lr, err := Open(d, logBase, logSize, clk, Config{})
	if err != nil {
		t.Fatal(err)
	}
	recon := map[imageKey][]byte{}
	for k, v := range flushed {
		recon[k] = v
	}
	if _, err := recoverLog(lr, func(kind uint8, target uint64, data []byte) error {
		cp := make([]byte, len(data))
		copy(cp, data)
		recon[imageKey{kind, target}] = cp
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 80; i++ { // the four committed forces
		k := imageKey{KindNameTable, uint64(i)}
		if recon[k] == nil {
			t.Fatalf("committed image %d lost after anchor-window crash", i)
		}
	}
}

// FailNextWrite interrupts the very next write operation at its first
// sector and halts the device.
func FailNextWrite() disk.WriteFaultFunc {
	return disk.FailAfterWrites(0, 0)
}

func TestBatchBiggerThanThird(t *testing.T) {
	// A batch needing more sectors than one division splits into records
	// that hop divisions; nothing is rejected.
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.FlushHook = func(int) (int, error) { return 0, nil }
	var ims []PageImage
	for j := 0; j < 3*MaxImagesPerRecord; j++ {
		ims = append(ims, img(KindNameTable, uint64(j), byte(j)))
	}
	l.Append(ims...)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != 3 {
		t.Fatalf("records = %d, want 3", st.Records)
	}
	_, c, _ := reopen(t, d, clk, Config{})
	if len(c.last) != 3*MaxImagesPerRecord {
		t.Fatalf("recovered %d images", len(c.last))
	}
}

// TestHeaderCopyMirageAtThirdBoundary is the regression test for a subtle
// recovery bug the model checker found: a record ending exactly two sectors
// before a third boundary creates a self-consistent mirage — a phantom
// record at boundary-2 whose header-copy and end-copy positions coincide
// with the next record's primary header and end page — which recovery would
// accept misaligned, derailing the rest of the replay. The writer now never
// ends a record at boundary-2 (it moves the record or sheds an image), and
// this test drives the layout that used to trigger it.
func TestHeaderCopyMirageAtThirdBoundary(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.FlushHook = func(int) (int, error) { return 0, nil }
	// Without the fix this fills the first third to exactly 198 of its
	// 200 sectors: 27 single-image records (7) + one two-image record
	// (9). The writer must refuse that final placement.
	id := 0
	write := func(n int) {
		var ims []PageImage
		for j := 0; j < n; j++ {
			id++
			ims = append(ims, img(KindLeader, uint64(id), byte(id)))
		}
		l.Append(ims...)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 27; i++ {
		write(1)
	}
	write(2)
	write(3)
	write(1)
	// Recovery must see every record, whatever layout the writer chose.
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records < 30 {
		t.Fatalf("recovered %d records, want all >= 30 (mirage dropped the tail)", rs.Records)
	}
	if rs.Repaired != 0 {
		t.Fatalf("%d spurious copy repairs on an undamaged log (mirage accepted)", rs.Repaired)
	}
	if c.last[imageKey{KindLeader, uint64(id)}] == nil {
		t.Fatal("newest record lost to the boundary mirage")
	}
}

// TestNoRecordEndsAtBoundaryMinusTwo drives thousands of randomly sized
// forces and asserts the writer's invariant directly.
func TestNoRecordEndsAtBoundaryMinusTwo(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Second})
	l.FlushHook = func(int) (int, error) { return 0, nil }
	id := 0
	seed := uint32(12345)
	for i := 0; i < 400; i++ {
		seed = seed*1664525 + 1013904223
		n := int(seed%7) + 1
		var ims []PageImage
		for j := 0; j < n; j++ {
			id++
			ims = append(ims, img(KindLeader, uint64(id), byte(id)))
		}
		l.Append(ims...)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		tl := l.thirdLen()
		if rem := tl - l.writeOff%tl; rem == 2 {
			t.Fatalf("force %d left writeOff at boundary-2 (%d)", i, l.writeOff)
		}
	}
}

// TestTornMultiRecordBatchDiscarded is the regression test for the other
// model-checker find: a force that splits into several records must be
// applied all-or-nothing. Here the second record of a two-record force is
// torn; recovery must not apply the first record's images either.
func TestTornMultiRecordBatchDiscarded(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	// A committed single-record force first.
	l.Append(img(KindNameTable, 1, 0x11))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Now a 45-image force: record A (39 images) + record B (6 images).
	var ims []PageImage
	for j := 0; j < 45; j++ {
		ims = append(ims, img(KindNameTable, uint64(100+j), byte(j)))
	}
	l.Append(ims...)
	// Let record A through; tear record B at its fourth sector.
	allow := 1
	d.SetWriteFault(func(addr, n int) *disk.WriteFault {
		if allow > 0 {
			allow--
			return nil
		}
		return &disk.WriteFault{Persist: 4, DamageAtBreak: true, Halt: true}
	})
	if err := l.Force(); !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("torn force: %v", err)
	}
	d.Revive()
	_, c, rs := reopen(t, d, clk, Config{})
	if c.last[imageKey{KindNameTable, 1}] == nil {
		t.Fatal("committed record lost")
	}
	for j := 0; j < 45; j++ {
		if c.last[imageKey{KindNameTable, uint64(100 + j)}] != nil {
			t.Fatalf("image %d of the torn batch was applied (batch atomicity violated)", j)
		}
	}
	if rs.TailDiscarded == 0 {
		t.Fatal("TailDiscarded not reported for the torn batch")
	}
	if rs.TornRecords != 1 {
		t.Fatalf("TornRecords = %d, want 1 (record B torn mid-write)", rs.TornRecords)
	}
}

// TestGapBreakCounted: an unreadable record in the middle of the chain stops
// replay and is reported as a reordering gap, distinct from an ordinary torn
// tail — the records beyond it are intact but unreachable.
func TestGapBreakCounted(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	for i := 0; i < 3; i++ {
		l.Append(img(KindNameTable, uint64(i), byte(i)))
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	// Single-image records are 7 sectors; record 2 starts at +7 from the
	// record area. Ruin both of its header copies (sectors +0 and +2).
	rec2 := logBase + 4 + 7
	d.CorruptSectors(rec2+0, 1)
	d.CorruptSectors(rec2+2, 1)
	_, c, rs := reopen(t, d, clk, Config{})
	if rs.Records != 1 {
		t.Fatalf("replayed %d records, want 1 (chain breaks at the gap)", rs.Records)
	}
	if rs.GapBreaks != 1 {
		t.Fatalf("GapBreaks = %d, want 1", rs.GapBreaks)
	}
	if c.last[imageKey{KindNameTable, 0}] == nil {
		t.Fatal("record before the gap lost")
	}
	if c.last[imageKey{KindNameTable, 2}] != nil {
		t.Fatal("record beyond the gap must not replay")
	}
}

// tornAnchorEpisode forces one record, then tears the anchor-copy write at
// target (logBase or logBase+2) during the recovery that rewrites the
// anchor, and checks that a second recovery still finds the record by
// falling back to the other copy. Run with both targets, it shows the
// duplexed anchor is update-atomic in either write order.
func tornAnchorEpisode(t *testing.T, target int) {
	t.Helper()
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindLeader, 5, 0x55))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	// First recovery: the anchor rewrite tears mid-way through the chosen
	// copy. A sector write has no atomicity at all here — nothing of it
	// lands and the sector is left scribbled.
	d.SetWriteFault(func(addr, n int) *disk.WriteFault {
		if addr == target {
			return &disk.WriteFault{Persist: 0, DamageAtBreak: true, Halt: true}
		}
		return nil
	})
	lr, err := Open(d, logBase, logSize, clk, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c1 := newCollect()
	if _, err := recoverLog(lr, c1.apply); !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("recovery with torn anchor write: %v, want ErrHalted", err)
	}
	if c1.last[imageKey{KindLeader, 5}] == nil {
		t.Fatal("replay before the anchor tear lost the record")
	}
	d.Revive()
	d.SetWriteFault(nil)

	// Second recovery: one anchor copy is scribble, the other is intact,
	// so the pair is still update-atomic — recovery lands on exactly one
	// of the two legal states. Tearing the primary leaves the OLD pair in
	// the copy: the record replays again. Tearing the copy leaves the NEW
	// primary: the log reads as already reset (its images were delivered
	// before the tear, as c1 proved). Either way recovery must succeed and
	// never read a half-updated anchor.
	l2, c2, rs := reopen(t, d, clk, Config{})
	switch target {
	case logBase:
		if rs.Records != 1 {
			t.Fatalf("records after torn primary = %d, want 1 (old anchor pair)", rs.Records)
		}
		got := c2.last[imageKey{KindLeader, 5}]
		if got == nil || got[0] != 0x55 {
			t.Fatal("record lost after torn primary anchor write")
		}
	default:
		if rs.Records != 0 {
			t.Fatalf("records after torn copy = %d, want 0 (new anchor already durable)", rs.Records)
		}
	}

	// The healed log must be fully usable: the rewritten anchor pair is
	// intact again and carries new records across another recovery.
	l2.Append(img(KindLeader, 6, 0x66))
	if err := l2.Force(); err != nil {
		t.Fatalf("force after healed anchor: %v", err)
	}
	_, c3, rs3 := reopen(t, d, clk, Config{})
	if rs3.Records != 1 || c3.last[imageKey{KindLeader, 6}] == nil {
		t.Fatalf("log unusable after anchor tear: %+v", rs3)
	}
}

func TestAnchorTornPrimaryWrite(t *testing.T) { tornAnchorEpisode(t, logBase) }

func TestAnchorTornCopyWrite(t *testing.T) { tornAnchorEpisode(t, logBase+2) }

func TestInspectMatchesWrites(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: time.Second})
	l.Append(img(KindNameTable, 1, 1), img(KindLeader, 2, 2))
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	var big []PageImage
	for j := 0; j < MaxImagesPerRecord+3; j++ {
		big = append(big, img(KindNameTable, uint64(10+j), byte(j)))
	}
	l.Append(big...)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(d, logBase, logSize)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Records) != 3 {
		t.Fatalf("inspect found %d records, want 3", len(info.Records))
	}
	// Record 1: 2 images, end-of-batch. Records 2+3: split force, only
	// the last flagged.
	if !info.Records[0].EndOfBatch || info.Records[0].Images != 2 {
		t.Fatalf("record 1: %+v", info.Records[0])
	}
	if info.Records[1].EndOfBatch || !info.Records[2].EndOfBatch {
		t.Fatal("batch flags wrong on the split force")
	}
	if info.Records[0].Targets[1].Kind != KindLeader || info.Records[0].Targets[1].Target != 2 {
		t.Fatalf("targets: %+v", info.Records[0].Targets)
	}
	if info.PartialTail != 0 {
		t.Fatalf("PartialTail = %d on a clean log", info.PartialTail)
	}
	// Inspect is read-only: a second inspection sees the same thing.
	info2, err := Inspect(d, logBase, logSize)
	if err != nil || len(info2.Records) != 3 {
		t.Fatal("Inspect consumed the log")
	}
}

func TestInspectReportsPartialTail(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: time.Second})
	var big []PageImage
	for j := 0; j < MaxImagesPerRecord+3; j++ {
		big = append(big, img(KindNameTable, uint64(j), byte(j)))
	}
	l.Append(big...)
	// Tear the second record of the split force.
	allow := 1
	d.SetWriteFault(func(addr, n int) *disk.WriteFault {
		if allow > 0 {
			allow--
			return nil
		}
		return &disk.WriteFault{Persist: 2, DamageAtBreak: true, Halt: true}
	})
	if err := l.Force(); !errors.Is(err, disk.ErrHalted) {
		t.Fatalf("force: %v", err)
	}
	d.Revive()
	info, err := Inspect(d, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if info.PartialTail == 0 {
		t.Fatal("partial tail not reported")
	}
}
