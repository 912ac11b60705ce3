package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func newTestDisk(t *testing.T) (*Disk, *sim.VirtualClock) {
	t.Helper()
	clk := sim.NewVirtualClock()
	d, err := New(SmallGeometry, DefaultParams, clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, clk
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d, _ := newTestDisk(t)
	buf, err := d.ReadSectors(100, 2)
	if err != nil {
		t.Fatalf("ReadSectors: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, _ := newTestDisk(t)
	data := make([]byte, 3*SectorSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := d.WriteSectors(500, data); err != nil {
		t.Fatalf("WriteSectors: %v", err)
	}
	got, err := d.ReadSectors(500, 3)
	if err != nil {
		t.Fatalf("ReadSectors: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnalignedWriteRejected(t *testing.T) {
	d, _ := newTestDisk(t)
	if err := d.WriteSectors(0, make([]byte, 100)); err == nil {
		t.Fatal("expected error for unaligned write")
	}
}

func TestOutOfRange(t *testing.T) {
	d, _ := newTestDisk(t)
	last := SmallGeometry.Sectors()
	if _, err := d.ReadSectors(last, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: %v, want ErrOutOfRange", err)
	}
	if _, err := d.ReadSectors(-1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative read: %v, want ErrOutOfRange", err)
	}
	if _, err := d.ReadSectors(last-1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("spanning read: %v, want ErrOutOfRange", err)
	}
}

func TestLabelVerifyReadWrite(t *testing.T) {
	d, _ := newTestDisk(t)
	lab := Label{FileID: 42, Page: 0, Type: PageData}
	data := make([]byte, SectorSize)
	data[0] = 0xAB
	if err := d.WriteLabelsData(200, []Label{lab}, data); err != nil {
		t.Fatalf("WriteLabelsData: %v", err)
	}
	got, err := d.VerifyRead(200, []Label{lab})
	if err != nil {
		t.Fatalf("VerifyRead: %v", err)
	}
	if got[0] != 0xAB {
		t.Fatalf("data byte = %x, want ab", got[0])
	}
	// Wrong label must abort.
	bad := Label{FileID: 43, Page: 0, Type: PageData}
	if _, err := d.VerifyRead(200, []Label{bad}); err == nil {
		t.Fatal("VerifyRead with wrong label succeeded")
	} else {
		var le *LabelError
		if !errors.As(err, &le) {
			t.Fatalf("error %v, want LabelError", err)
		}
	}
}

func TestVerifyWriteChecksThenWrites(t *testing.T) {
	d, _ := newTestDisk(t)
	lab := Label{FileID: 7, Page: 3, Type: PageData}
	if err := d.WriteLabels(300, []Label{lab}); err != nil {
		t.Fatalf("WriteLabels: %v", err)
	}
	data := make([]byte, SectorSize)
	data[10] = 0x5A
	if err := d.VerifyWrite(300, []Label{lab}, data); err != nil {
		t.Fatalf("VerifyWrite: %v", err)
	}
	got, err := d.VerifyRead(300, []Label{lab})
	if err != nil {
		t.Fatalf("VerifyRead: %v", err)
	}
	if got[10] != 0x5A {
		t.Fatal("VerifyWrite did not store data")
	}
	// Mismatched label must refuse the write.
	if err := d.VerifyWrite(300, []Label{{FileID: 9}}, data); err == nil {
		t.Fatal("VerifyWrite with wrong label succeeded")
	}
}

func TestVerifyWriteCostsARevolution(t *testing.T) {
	d, clk := newTestDisk(t)
	lab := Label{FileID: 7, Page: 0, Type: PageData}
	if err := d.WriteLabels(40, []Label{lab}); err != nil {
		t.Fatalf("WriteLabels: %v", err)
	}
	data := make([]byte, SectorSize)
	before := clk.Now()
	if err := d.VerifyWrite(40, []Label{lab}, data); err != nil {
		t.Fatalf("VerifyWrite: %v", err)
	}
	elapsed := clk.Now() - before
	rev := DefaultParams.Revolution()
	if elapsed < rev {
		t.Fatalf("VerifyWrite took %v, want >= one revolution (%v)", elapsed, rev)
	}
}

func TestDamagedSectorFailsUntilRewritten(t *testing.T) {
	d, _ := newTestDisk(t)
	d.CorruptSectors(50, 2)
	if _, err := d.ReadSectors(50, 1); err == nil {
		t.Fatal("read of damaged sector succeeded")
	} else {
		var de *DamagedError
		if !errors.As(err, &de) || de.Addr != 50 {
			t.Fatalf("error %v, want DamagedError at 50", err)
		}
	}
	// A read spanning the damage fails at the damaged sector.
	if _, err := d.ReadSectors(49, 3); err == nil {
		t.Fatal("spanning read succeeded")
	}
	// Rewriting repairs.
	if err := d.WriteSectors(50, make([]byte, 2*SectorSize)); err != nil {
		t.Fatalf("repair write: %v", err)
	}
	if _, err := d.ReadSectors(50, 2); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
}

func TestHaltAndRevive(t *testing.T) {
	d, _ := newTestDisk(t)
	d.Halt()
	if _, err := d.ReadSectors(0, 1); !errors.Is(err, ErrHalted) {
		t.Fatalf("read after halt: %v, want ErrHalted", err)
	}
	if err := d.WriteSectors(0, make([]byte, SectorSize)); !errors.Is(err, ErrHalted) {
		t.Fatalf("write after halt: %v, want ErrHalted", err)
	}
	d.Revive()
	if _, err := d.ReadSectors(0, 1); err != nil {
		t.Fatalf("read after revive: %v", err)
	}
}

func TestWriteFaultWeakAtomic(t *testing.T) {
	d, _ := newTestDisk(t)
	full := make([]byte, 4*SectorSize)
	for i := range full {
		full[i] = 0xFF
	}
	d.SetWriteFault(FailAfterWrites(0, 2))
	err := d.WriteSectors(600, full)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("faulted write: %v, want ErrHalted", err)
	}
	d.Revive()
	// First two sectors persisted.
	got, err := d.ReadSectors(600, 2)
	if err != nil {
		t.Fatalf("read persisted prefix: %v", err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatal("persisted prefix lost")
		}
	}
	// Sector at the break point is damaged.
	if _, err := d.ReadSectors(602, 1); err == nil {
		t.Fatal("sector at break point readable, want damaged")
	}
	// Sector past the break point was never written.
	got, err = d.ReadSectors(603, 1)
	if err != nil {
		t.Fatalf("read past break: %v", err)
	}
	if got[0] != 0 {
		t.Fatal("sector past break point was written")
	}
}

func TestFailAfterWritesCountdown(t *testing.T) {
	d, _ := newTestDisk(t)
	d.SetWriteFault(FailAfterWrites(2, 0))
	buf := make([]byte, SectorSize)
	if err := d.WriteSectors(0, buf); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := d.WriteSectors(1, buf); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if err := d.WriteSectors(2, buf); !errors.Is(err, ErrHalted) {
		t.Fatalf("write 3: %v, want ErrHalted", err)
	}
}

func TestSeekTimingMonotonicInDistance(t *testing.T) {
	p := DefaultParams
	prev := time.Duration(0)
	for _, dist := range []int{0, 1, 8, 9, 100, 400, 814} {
		st := p.SeekTime(dist)
		if st < prev {
			t.Fatalf("seek time decreased at distance %d", dist)
		}
		prev = st
	}
	if p.SeekTime(5) != p.SeekTime(-5) {
		t.Fatal("seek time not symmetric")
	}
}

func TestContiguousTransferHasNoRotationalGaps(t *testing.T) {
	d, clk := newTestDisk(t)
	// Read one full track: after the initial positioning, every following
	// sector should transfer back-to-back.
	spt := SmallGeometry.SectorsPerTrack
	start := clk.Now()
	if _, err := d.ReadSectors(0, spt); err != nil {
		t.Fatalf("ReadSectors: %v", err)
	}
	elapsed := clk.Now() - start
	// One revolution max for positioning plus exactly one revolution of
	// transfer.
	maxWant := 2 * DefaultParams.Revolution()
	if elapsed > maxWant {
		t.Fatalf("full-track read took %v, want <= %v", elapsed, maxWant)
	}
	st := d.Stats()
	diff := DefaultParams.Revolution() - st.TransferTime
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("transfer time %v, want ~one revolution %v", st.TransferTime, DefaultParams.Revolution())
	}
}

func TestReadThenImmediateRewriteLosesRevolution(t *testing.T) {
	d, clk := newTestDisk(t)
	if _, err := d.ReadSectors(10, 1); err != nil {
		t.Fatalf("read: %v", err)
	}
	before := clk.Now()
	if err := d.WriteSectors(10, make([]byte, SectorSize)); err != nil {
		t.Fatalf("write: %v", err)
	}
	elapsed := clk.Now() - before
	rev := DefaultParams.Revolution()
	if elapsed < rev*3/4 {
		t.Fatalf("immediate rewrite took %v, want ~one revolution (%v)", elapsed, rev)
	}
	if d.Stats().LostRevs == 0 {
		t.Fatal("lost revolution not counted")
	}
}

func TestStatsAccounting(t *testing.T) {
	d, _ := newTestDisk(t)
	d.SetClassifier(func(addr int) Class {
		if addr < 100 {
			return ClassMeta
		}
		return ClassData
	})
	if _, err := d.ReadSectors(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSectors(5000, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Ops != 2 || st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("ops=%d reads=%d writes=%d", st.Ops, st.Reads, st.Writes)
	}
	if st.SectorsRead != 2 || st.SectorsWritten != 1 {
		t.Fatalf("sectorsRead=%d sectorsWritten=%d", st.SectorsRead, st.SectorsWritten)
	}
	if st.OpsByClass[ClassMeta] != 1 || st.OpsByClass[ClassData] != 1 {
		t.Fatalf("class counts %v", st.OpsByClass)
	}
	prev := d.ResetStats()
	if prev.Ops != 2 {
		t.Fatal("ResetStats did not return previous snapshot")
	}
	if d.Stats().Ops != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestMergeableOpsAccounting(t *testing.T) {
	d, _ := newTestDisk(t)
	// Two back-to-back reads: the second begins where the first ended.
	if _, err := d.ReadSectors(100, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadSectors(104, 4); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().MergeableOps; got != 1 {
		t.Fatalf("adjacent same-direction reads: MergeableOps = %d, want 1", got)
	}
	// Adjacent but direction flips: not mergeable.
	if err := d.WriteSectors(108, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	// Adjacent writes: mergeable again.
	if err := d.WriteSectors(109, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	// A gap: not mergeable.
	if _, err := d.ReadSectors(500, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().MergeableOps; got != 2 {
		t.Fatalf("MergeableOps = %d, want 2", got)
	}
	if d.ResetStats().MergeableOps != 2 {
		t.Fatal("ResetStats did not return MergeableOps")
	}
	if d.Stats().MergeableOps != 0 {
		t.Fatal("ResetStats did not zero MergeableOps")
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Ops: 10, Reads: 6, Writes: 4, SectorsRead: 20, SeekTime: time.Second}
	b := Stats{Ops: 3, Reads: 2, Writes: 1, SectorsRead: 5, SeekTime: time.Millisecond}
	c := a.Sub(b)
	if c.Ops != 7 || c.Reads != 4 || c.Writes != 3 || c.SectorsRead != 15 {
		t.Fatalf("Sub: %+v", c)
	}
}

func TestSmashSectorIsSilent(t *testing.T) {
	d, _ := newTestDisk(t)
	lab := Label{FileID: 1, Page: 0, Type: PageData}
	if err := d.WriteLabelsData(77, []Label{lab}, make([]byte, SectorSize)); err != nil {
		t.Fatal(err)
	}
	evil := make([]byte, SectorSize)
	evil[0] = 0xEE
	d.SmashSector(77, evil, nil)
	// A plain read sees the smashed data silently...
	got, err := d.ReadSectors(77, 1)
	if err != nil || got[0] != 0xEE {
		t.Fatalf("plain read: %v %x", err, got[0])
	}
	// ...but a labelled read still verifies fine because the label is
	// intact (this is why CFS catches only wild writes that also smash
	// labels; content smashes pass). Smash the label too:
	d.SmashSector(77, evil, &Label{FileID: 999, Type: PageData})
	if _, err := d.VerifyRead(77, []Label{lab}); err == nil {
		t.Fatal("VerifyRead missed a smashed label")
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := DefaultGeometry
	if g.Sectors() != 38*19*815 {
		t.Fatalf("Sectors() = %d", g.Sectors())
	}
	if got := g.Bytes(); got < 300_000_000 || got > 302_000_000 {
		t.Fatalf("Bytes() = %d, want ~301 MB", got)
	}
	if g.Cylinder(0) != 0 || g.Cylinder(38*19) != 1 {
		t.Fatal("Cylinder() wrong")
	}
	if g.RotationalSlot(39) != 1 {
		t.Fatal("RotationalSlot() wrong")
	}
	if err := (Geometry{}).Validate(); err == nil {
		t.Fatal("zero geometry validated")
	}
}

func TestImageSaveLoadRoundTrip(t *testing.T) {
	d, _ := newTestDisk(t)
	lab := Label{FileID: 5, Page: 2, Type: PageHeader}
	data := make([]byte, SectorSize)
	data[100] = 0x42
	if err := d.WriteLabelsData(123, []Label{lab}, data); err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(124, 1)
	d.SmashSector(124, make([]byte, SectorSize), nil) // materialize the damaged sector
	d.CorruptSectors(124, 1)

	path := filepath.Join(t.TempDir(), "vol.img")
	if err := d.SaveImage(path); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	d2, err := LoadImage(path, DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	if d2.Geometry() != d.Geometry() {
		t.Fatal("geometry not preserved")
	}
	got, err := d2.VerifyRead(123, []Label{lab})
	if err != nil {
		t.Fatalf("VerifyRead after load: %v", err)
	}
	if got[100] != 0x42 {
		t.Fatal("data not preserved")
	}
	if !d2.IsDamaged(124) {
		t.Fatal("damage flag not preserved")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.img")
	if err := os.WriteFile(path, []byte("not an image at all, definitely not"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(path, DefaultParams, sim.NewVirtualClock()); err == nil {
		t.Fatal("LoadImage accepted garbage")
	}
}

// QuickCheck property: any sequence of writes followed by reads returns the
// last-written contents for every sector touched.
func TestQuickWriteReadConsistency(t *testing.T) {
	f := func(addrs []uint16, seeds []byte) bool {
		d, err := New(SmallGeometry, DefaultParams, sim.NewVirtualClock())
		if err != nil {
			return false
		}
		want := map[int]byte{}
		for i, a := range addrs {
			addr := int(a) % SmallGeometry.Sectors()
			var seed byte
			if len(seeds) > 0 {
				seed = seeds[i%len(seeds)]
			}
			buf := make([]byte, SectorSize)
			buf[0] = seed
			if err := d.WriteSectors(addr, buf); err != nil {
				return false
			}
			want[addr] = seed
		}
		for addr, seed := range want {
			got, err := d.ReadSectors(addr, 1)
			if err != nil || got[0] != seed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// QuickCheck property: rotational waits are always in [0, one revolution).
func TestQuickRotationalWaitBounded(t *testing.T) {
	f := func(addr uint16, pre uint16) bool {
		clk := sim.NewVirtualClock()
		d, err := New(SmallGeometry, DefaultParams, clk)
		if err != nil {
			return false
		}
		clk.Advance(time.Duration(pre) * time.Microsecond)
		a := int(addr) % SmallGeometry.Sectors()
		before := d.Stats().RotTime
		if _, err := d.ReadSectors(a, 1); err != nil {
			return false
		}
		wait := d.Stats().RotTime - before
		return wait >= 0 && wait < DefaultParams.Revolution()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPositionTimeIsTheNextOpsPositioning: PositionTime is a pure query — no
// clock, arm or counter moves — and it is exactly the seek plus rotational
// wait the next operation at that address then pays.
func TestPositionTimeIsTheNextOpsPositioning(t *testing.T) {
	f := func(from, to uint16, pre uint16) bool {
		d, clk := newTestDisk(t)
		if _, err := d.ReadSectors(int(from)%SmallGeometry.Sectors(), 1); err != nil {
			return false
		}
		clk.Advance(time.Duration(pre) * time.Microsecond)
		addr := int(to) % SmallGeometry.Sectors()
		now, st := clk.Now(), d.Stats()
		got := d.PositionTime(addr)
		if clk.Now() != now || d.Stats() != st || d.PositionTime(addr) != got {
			return false
		}
		if err := d.WriteSectors(addr, make([]byte, SectorSize)); err != nil {
			return false
		}
		paid := d.Stats().Sub(st)
		return got == paid.SeekTime+paid.RotTime && got < DefaultParams.SeekTime(SmallGeometry.Cylinders)+DefaultParams.Revolution()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadLabelsAndAccessors(t *testing.T) {
	d, clk := newTestDisk(t)
	if d.Params() != DefaultParams {
		t.Fatal("Params accessor wrong")
	}
	if d.Clock() != clk {
		t.Fatal("Clock accessor wrong")
	}
	labs := []Label{
		{FileID: 1, Page: 0, Type: PageHeader},
		{FileID: 1, Page: 1, Type: PageHeader},
		{FileID: 1, Page: 0, Type: PageData},
	}
	if err := d.WriteLabels(700, labs); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadLabels(700, 3)
	if err != nil {
		t.Fatalf("ReadLabels: %v", err)
	}
	for i := range labs {
		if got[i] != labs[i] {
			t.Fatalf("label %d = %v, want %v", i, got[i], labs[i])
		}
	}
	if d.PeekLabel(700) != labs[0] {
		t.Fatal("PeekLabel wrong")
	}
	// Damage stops the label transfer partway.
	d.CorruptSectors(701, 1)
	part, err := d.ReadLabels(700, 3)
	if err == nil {
		t.Fatal("ReadLabels through damage succeeded")
	}
	if len(part) != 1 || part[0] != labs[0] {
		t.Fatalf("partial labels: %v", part)
	}
	if d.Stats().BusyTime() == 0 {
		t.Fatal("BusyTime zero after I/O")
	}
}

func TestCrossCylinderTransfer(t *testing.T) {
	d, _ := newTestDisk(t)
	// A run spanning a cylinder boundary: sectors/cyl = 38*19 = 722.
	perCyl := SmallGeometry.SectorsPerTrack * SmallGeometry.TracksPerCylinder
	start := perCyl - 3
	data := make([]byte, 6*SectorSize)
	for i := range data {
		data[i] = 0x5C
	}
	if err := d.WriteSectors(start, data); err != nil {
		t.Fatalf("cross-cylinder write: %v", err)
	}
	got, err := d.ReadSectors(start, 6)
	if err != nil {
		t.Fatalf("cross-cylinder read: %v", err)
	}
	for i, b := range got {
		if b != 0x5C {
			t.Fatalf("byte %d lost across cylinder boundary", i)
		}
	}
	if d.Stats().ShortSeeks == 0 {
		t.Fatal("cylinder crossing did not register a short seek")
	}
}

func TestWriteLabelsDataLengthMismatch(t *testing.T) {
	d, _ := newTestDisk(t)
	if err := d.WriteLabelsData(0, []Label{{FileID: 1}}, make([]byte, 2*SectorSize)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestErrorStringsAndLabelStrings(t *testing.T) {
	de := &DamagedError{Addr: 42}
	if de.Error() == "" {
		t.Fatal("empty DamagedError")
	}
	le := &LabelError{Addr: 1, Want: Label{FileID: 2, Type: PageData}, Got: FreeLabel}
	if le.Error() == "" {
		t.Fatal("empty LabelError")
	}
	for ty := PageFree; ty <= PageVAM+1; ty++ {
		if ty.String() == "" {
			t.Fatalf("empty PageType string for %d", ty)
		}
	}
	if (Label{FileID: 9, Page: 3, Type: PageData}).String() == "" {
		t.Fatal("empty Label string")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Geometry{}, DefaultParams, sim.NewVirtualClock()); err == nil {
		t.Fatal("zero geometry accepted")
	}
}
