package wal

import (
	"testing"
)

func TestScrubCopiesRepairsDecayedTwins(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: 1}) // manual forcing
	// Three records of two images each.
	for r := 0; r < 3; r++ {
		if _, err := l.Append(img(KindNameTable, uint64(2*r), byte(r)), img(KindNameTable, uint64(2*r+1), byte(r)+100)); err != nil {
			t.Fatal(err)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	// Decay one copy of each dual-copy structure of the first record
	// (7 sectors at logBase+4: hdr, blank, hdr copy, d0, d1, end, d0', d1',
	// end' — n=2 makes it 9 sectors) plus the anchor copy.
	first := logBase + 4
	d.CorruptSectors(first, 1)     // primary header
	d.CorruptSectors(first+3, 1)   // first copy of image 0
	d.CorruptSectors(first+8, 1)   // end-page copy
	d.CorruptSectors(logBase+2, 1) // anchor copy
	st, err := l.ScrubCopies(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 {
		t.Fatalf("audited %d records, want 3", st.Records)
	}
	if st.Repaired != 4 {
		t.Fatalf("repaired %d, want 4 (%v)", st.Repaired, st.Problems)
	}
	if len(st.Problems) != 0 {
		t.Fatalf("problems: %v", st.Problems)
	}
	// Everything is whole again: a second scrub repairs nothing, and
	// recovery replays all three records without copy fallbacks.
	st2, err := l.ScrubCopies(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Repaired != 0 {
		t.Fatalf("second scrub repaired %d", st2.Repaired)
	}
	_, c, rs := reopen(t, d, d.Clock(), Config{Interval: 1})
	if rs.Records != 3 || rs.Repaired != 0 {
		t.Fatalf("recovery after scrub: %+v", rs)
	}
	if len(c) != 6 {
		t.Fatalf("replayed %d images, want 6", len(c))
	}
}

func TestScrubCopiesReportsDoubleLoss(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: 1})
	if _, err := l.Append(img(KindNameTable, 1, 0xEE)); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// n=1 record at logBase+4: hdr, blank, hdr', d0, end, d0', end'.
	first := logBase + 4
	d.CorruptSectors(first+3, 1) // image
	d.CorruptSectors(first+5, 1) // image copy
	st, err := l.ScrubCopies(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Problems) == 0 {
		t.Fatal("double image loss not reported")
	}
}

func TestScrubCopiesUsesWriteOverride(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: 1})
	if _, err := l.Append(img(KindNameTable, 1, 0x11)); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(logBase+4+2, 1) // header copy
	var wrote []int
	st, err := l.ScrubCopies(func(addr int, data []byte) error {
		wrote = append(wrote, addr)
		return d.WriteSectors(addr, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 1 || len(wrote) != 1 || wrote[0] != logBase+4+2 {
		t.Fatalf("repaired=%d wrote=%v", st.Repaired, wrote)
	}
}
