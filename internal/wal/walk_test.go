package wal

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
)

// TestInspectStopsWhereReplayStops: with the first copy of one image of
// record 1 dead and both copies of record 2's image lost, replay applies
// record 1 — reading past the dead sector and taking its twin — and stops;
// Inspect, which shares replay's walk and reader, lists exactly the records
// replay walked, and their images are the ones it returns.
func TestInspectStopsWhereReplayStops(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second})
	var first []PageImage
	for i := 0; i < 6; i++ {
		first = append(first, img(KindNameTable, uint64(i), byte(i)))
	}
	for _, batch := range [][]PageImage{first, {img(KindNameTable, 6, 6)}, {img(KindNameTable, 7, 7)}} {
		if _, err := l.Append(batch...); err != nil {
			t.Fatal(err)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	// Record 1 is 17 sectors, its images from +3; record 2 starts at area
	// offset 17, its one image at +3 and the image's copy at +5.
	rec1 := logBase + anchorSectors
	d.CorruptSectors(rec1+3+2, 1)
	rec2 := rec1 + 17
	d.CorruptSectors(rec2+3, 1)
	d.CorruptSectors(rec2+5, 1)

	info, err := Inspect(d, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := Open(d, logBase, logSize, clk, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ims, rs, err := lr.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 1 || rs.Repaired != 1 || len(info.Records) != rs.Records {
		t.Fatalf("Inspect lists %d records, replay walked %d with %d repaired (want 1 each)", len(info.Records), rs.Records, rs.Repaired)
	}
	if listed, _, _ := completeBatches(info); len(listed) != len(first) || !slices.Equal(listed, refsOf(ims)) {
		t.Fatalf("Inspect lists images %v, replay returned %v", listed, refsOf(ims))
	}
}

// TestLogRecordsItsDivisions: the division count is the volume's. A log
// formatted in four divisions is walked in four whatever the opener's Config
// says, and an anchor written before the count was recorded — a zero where it
// now sits — reads as the paper's three.
func TestLogRecordsItsDivisions(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Second, Thirds: 4})
	l.FlushHook = func(int) (int, error) { return 0, nil }
	for i := 0; i < 40; i++ { // 25-sector records: the log wraps twice
		var ims []PageImage
		for j := 0; j < 10; j++ {
			ims = append(ims, img(KindNameTable, uint64(i*10+j), byte(i)))
		}
		l.Append(ims...)
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	info, err := Inspect(d, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if info.Thirds != 4 || info.ThirdLen != 150 {
		t.Fatalf("Inspect walks %d divisions of %d sectors, want 4 of 150", info.Thirds, info.ThirdLen)
	}
	_, c, rs := reopen(t, d, clk, Config{Thirds: 3})
	if len(info.Records) != rs.Records || c[imageKey{KindNameTable, 399}] == nil {
		t.Fatalf("replay under a three-division Config: %+v (Inspect lists %d records); newest image lost", rs, len(info.Records))
	}

	// After the reset the anchor records 4; rewrite both copies as they
	// were laid out before the count existed.
	buf := make([]byte, disk.SectorSize)
	binary.BigEndian.PutUint32(buf[0:], anchorMagic)
	binary.BigEndian.PutUint32(buf[4:], 7)
	binary.BigEndian.PutUint64(buf[12:], 1)
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	for _, at := range []int{logBase, logBase + 2} {
		if err := d.WriteSectors(at, buf); err != nil {
			t.Fatal(err)
		}
	}
	lp, err := Open(d, logBase, logSize, clk, Config{Thirds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if lp.divs != 3 || lp.bootCount != 7 {
		t.Fatalf("a count-less anchor opens as %d divisions, boot %d; want 3, boot 7", lp.divs, lp.bootCount)
	}
	if a, err := lp.readAnchor(); err != nil || a.recordNum != 1 || a.offset != 0 {
		t.Fatalf("count-less anchor decodes as %+v, %v", a, err)
	}
	for _, k := range []int{1, 9} {
		if _, err := Format(d, logBase, logSize, clk, Config{Thirds: k}); err == nil {
			t.Fatalf("a log of %d divisions formatted (2..8 are valid)", k)
		}
	}
}
