package wal

import (
	"testing"

	"repro/internal/disk"
)

// TestScrubCopiesReadsInRuns: the log audit reads the records as they lie, in
// ascending runs of a full transfer, not a sector at a time — on a clean log
// at most one read per run of the record area — and planted single-copy
// damage, a decayed sector and a rotted one, is repaired from what the runs
// delivered, with no sector read on its own: only the decayed sector's one
// retry and the read that resumes behind it are added.
func TestScrubCopiesReadsInRuns(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: 1}) // manual forcing
	// 12 records of ten images, 25 sectors each — eight fill a 200-sector
	// third exactly, so the walk never has to probe a skipped tail: 300
	// sectors, into the second third.
	const records, images, recLen = 12, 10, 5 + 2*10
	for r := 0; r < records; r++ {
		var imgs []PageImage
		for i := 0; i < images; i++ {
			imgs = append(imgs, img(KindNameTable, uint64(images*r+i), byte(r+i)))
		}
		if _, err := l.Append(imgs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	recBase, area := logBase+anchorSectors, logSize-anchorSectors
	var reads []disk.OpEvent
	d.SetOpObserver(func(e disk.OpEvent) {
		if !e.Write && e.Addr >= recBase && e.Addr < recBase+area {
			reads = append(reads, e)
		}
	})
	audit := func() LogScrubStats {
		t.Helper()
		reads = nil
		st, err := l.ScrubCopies(nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != records || len(st.Problems) != 0 {
			t.Fatalf("audited %d records, problems %v", st.Records, st.Problems)
		}
		return st
	}

	st := audit()
	if st.Repaired != 0 || st.SectorsChecked < records*(recLen-1) {
		t.Fatalf("clean audit: %+v", st)
	}
	if max := (area + transferSectors - 1) / transferSectors; len(reads) > max {
		t.Fatalf("clean audit read the record area in %d requests, want at most %d (one per %d-sector run)", len(reads), max, transferSectors)
	}
	cleanReads, sectors := len(reads), 0
	for i, e := range reads {
		sectors += e.Sectors
		if i > 0 && e.Addr <= reads[i-1].Addr {
			t.Fatalf("record-area read %d at sector %d follows sector %d: not one ascending sweep", i, e.Addr, reads[i-1].Addr)
		}
	}
	if sectors < st.SectorsChecked-2 { // all but the anchor pair came from the runs
		t.Fatalf("runs carried %d sectors, the audit checked %d", sectors, st.SectorsChecked)
	}

	// In the sixth record the second copy of image 1 decays and the first
	// copy of image 2 rots.
	rec := recBase + 5*recLen
	decayed, rotted := rec+4+images+1, rec+3+2
	d.CorruptSectors(decayed, 1)
	garbage := make([]byte, disk.SectorSize)
	for i := range garbage {
		garbage[i] = 0xA5
	}
	d.SmashSector(rotted, garbage, nil)
	if st := audit(); st.Repaired != 2 {
		t.Fatalf("repaired %d of the two planted faults", st.Repaired)
	}
	// Each sector is judged as its run delivered it: the rotted one is not
	// read again (a second read returns the same bytes), and the decayed one
	// costs its one retry and the resume behind it — two reads more than the
	// clean audit, still one ascending sweep, and none of a single sector.
	if len(reads) != cleanReads+2 {
		t.Fatalf("damaged audit issued %d record-area reads, want %d (the clean %d, one retry, one resume)", len(reads), cleanReads+2, cleanReads)
	}
	for i, e := range reads {
		if e.Sectors == 1 {
			t.Fatalf("single-sector read at %d: the audit re-read a sector its run had delivered", e.Addr)
		}
		if i > 0 && e.Addr <= reads[i-1].Addr {
			t.Fatalf("record-area read %d at sector %d follows sector %d: not one ascending sweep", i, e.Addr, reads[i-1].Addr)
		}
	}
	if st := audit(); st.Repaired != 0 {
		t.Fatalf("second audit repaired %d", st.Repaired)
	}
	if _, c, rs := reopen(t, d, d.Clock(), Config{Interval: 1}); rs.Records != records || rs.Repaired != 0 || len(c) != records*images {
		t.Fatalf("recovery after the audit: %+v, %d images", rs, len(c))
	}
}

// TestLogRunsPastTheAreaEnd: the last run of the record area is as short as
// the area leaves it, and the walk probes a header copy two sectors past a
// header wherever that lies — a sector past the area's end is simply not in
// any run (it indexed past the short run's buffer, and panicked a scrub).
func TestLogRunsPastTheAreaEnd(t *testing.T) {
	_, d, _ := newTestLog(t, Config{Interval: 1})
	const area = transferSectors + 6
	r := logRuns{d: d, base: logBase + anchorSectors, area: area, runs: make(map[int]logRun)}
	pass := func([]byte) bool { return true }
	r.load(area-1, area+2)
	if r.get(area-1, pass, true) == nil {
		t.Fatal("the area's last sector is not in its last run")
	}
	for _, off := range []int{area, area + 1, 2 * transferSectors} {
		if r.get(off, pass, true) != nil {
			t.Fatalf("offset %d past the area's end is served", off)
		}
	}
}
