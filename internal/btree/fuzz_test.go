package btree

import (
	"errors"
	"fmt"
	"testing"
)

// FuzzLeafEntries: LeafEntries is total over any byte string — it decodes
// it, or reports ErrCorrupt without calling fn — and agrees with CheckPage,
// the check a page gets where it enters a tree. The seeds are a leaf the
// tree wrote, an empty and a zero page; testdata/fuzz/FuzzLeafEntries holds
// a leaf whose slot points past the page, which panicked in the decoder
// before pages were validated. `go test -fuzz FuzzLeafEntries
// ./internal/btree` explores.
func FuzzLeafEntries(f *testing.F) {
	f.Add(sampleLeaf(f))
	f.Add([]byte{})
	f.Add(make([]byte, 2048))
	f.Fuzz(func(t *testing.T, page []byte) {
		calls := 0
		err := LeafEntries(page, func(_, _ []byte) bool { calls++; return true })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LeafEntries error %v is not ErrCorrupt", err)
			}
			if calls > 0 {
				t.Fatalf("fn called %d times on a page LeafEntries refused", calls)
			}
		} else if cerr := CheckPage(1, page); cerr != nil {
			t.Fatalf("LeafEntries decoded a page CheckPage refuses: %v", cerr)
		}
	})
}

// sampleLeaf returns the leftmost leaf of a small tree, as the tree wrote it.
func sampleLeaf(tb testing.TB) []byte {
	p := NewMemPager(2048, 16)
	tr, err := Create(p)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("dir/file%02d!1", i)), []byte("entry value")); err != nil {
			tb.Fatal(err)
		}
	}
	for id := uint32(1); id < 16; id++ {
		if page, _ := p.Read(id); IsLeaf(page) {
			return append([]byte(nil), page...)
		}
	}
	tb.Fatal("no leaf written")
	return nil
}
