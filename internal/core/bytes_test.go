package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/sim"
)

func TestReadAtBasics(t *testing.T) {
	v, _, _ := newTestVolume(t)
	data := payload(3000, 5)
	f, err := v.Create("ra", data)
	if err != nil {
		t.Fatal(err)
	}
	// Middle of the file, crossing a page boundary.
	p := make([]byte, 700)
	n, err := f.ReadAt(p, 400)
	if err != nil || n != 700 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(p, data[400:1100]) {
		t.Fatal("ReadAt content mismatch")
	}
	// Tail read hits EOF.
	n, err = f.ReadAt(p, 2900)
	if n != 100 || !errors.Is(err, io.EOF) {
		t.Fatalf("tail ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(p[:100], data[2900:]) {
		t.Fatal("tail content mismatch")
	}
	// Past EOF.
	if _, err := f.ReadAt(p, 5000); !errors.Is(err, io.EOF) {
		t.Fatalf("past-EOF ReadAt: %v", err)
	}
	if _, err := f.ReadAt(p, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestWriteAtReadModifyWrite(t *testing.T) {
	v, _, _ := newTestVolume(t)
	data := payload(2000, 1)
	f, err := v.Create("wa", data)
	if err != nil {
		t.Fatal(err)
	}
	patch := payload(300, 0x90)
	if _, err := f.WriteAt(patch, 700); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	copy(want[700:], patch)
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("WriteAt merge failed: %v", err)
	}
	// Size unchanged by an interior write.
	if f.Size() != 2000 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestWriteAtGrowsSizeWithinAllocation(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("grow", payload(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	// One data page allocated (512 bytes): grow within it.
	if _, err := f.WriteAt(payload(200, 2), 300); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 500 {
		t.Fatalf("size = %d, want 500", f.Size())
	}
	// A write beyond the allocation grows it, by the one page it needs.
	if _, err := f.WriteAt(payload(200, 3), 400); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 600 || f.Pages() != 2 {
		t.Fatalf("size = %d, %d pages; want 600, 2", f.Size(), f.Pages())
	}
	want := append(payload(100, 1), make([]byte, 200)...)
	want = append(append(want[:300], payload(200, 2)[:100]...), payload(200, 3)...)
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after the growing write: %v", err)
	}
}

func TestRename(t *testing.T) {
	v, _, _ := newTestVolume(t)
	for i := 1; i <= 3; i++ {
		if _, err := v.Create("old.name", payload(100*i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Rename("old.name", "new.name"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Open("old.name", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old name still resolves: %v", err)
	}
	for i := 1; i <= 3; i++ {
		f, err := v.Open("new.name", uint32(i))
		if err != nil {
			t.Fatalf("version %d lost by rename: %v", i, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, payload(100*i, byte(i))) {
			t.Fatalf("version %d corrupted by rename", i)
		}
	}
	// Rename onto an existing name fails.
	if _, err := v.Create("occupied", nil); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename("new.name", "occupied"); !errors.Is(err, ErrExists) {
		t.Fatalf("rename onto existing: %v", err)
	}
	if err := v.Rename("ghost", "anything"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename of missing: %v", err)
	}
}

func TestRenameSurvivesCrash(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("before", payload(500, 7)); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename("before", "after"); err != nil {
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
	if _, err := v2.Open("before", 0); !errors.Is(err, ErrNotFound) {
		t.Fatal("old name survived crash")
	}
	f, err := v2.Open("after", 0)
	if err != nil {
		t.Fatalf("renamed file lost: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, payload(500, 7)) {
		t.Fatal("renamed file corrupted")
	}
}

// Property: WriteAt followed by ReadAt returns exactly what was written,
// for arbitrary offsets and lengths within the allocation.
func TestQuickWriteAtReadAt(t *testing.T) {
	clk := sim.NewVirtualClock()
	d, _ := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	v, err := Format(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	f, err := v.Create("q", payload(pages*disk.SectorSize, 0))
	if err != nil {
		t.Fatal(err)
	}
	mirror := payload(pages*disk.SectorSize, 0)
	i := 0
	fn := func(off uint16, length uint16, seed byte) bool {
		i++
		o := int64(off) % int64(pages*disk.SectorSize)
		l := int(length) % (pages*disk.SectorSize - int(o))
		if l == 0 {
			return true
		}
		p := payload(l, seed)
		if _, err := f.WriteAt(p, o); err != nil {
			return false
		}
		copy(mirror[o:], p)
		// Read back a window covering the write.
		back := make([]byte, l)
		if _, err := f.ReadAt(back, o); err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(back, mirror[o:int(o)+l])
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
