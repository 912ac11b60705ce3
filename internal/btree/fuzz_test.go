package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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

// FuzzOpen: Open is total over any meta page — it refuses it with
// ErrCorrupt, or accepts a page the tree could have written: the kind, magic,
// root, height and high-water mark read back through writeMeta as they were,
// and the reserved word is zero. A tree it accepts over a real tree's pages
// runs Check and a Get without a panic. The seeds are the real meta page, that
// page with a live page id in its reserved word, and a zero page. `go test
// -fuzz FuzzOpen ./internal/btree` explores.
func FuzzOpen(f *testing.F) {
	written := func() []byte {
		p := metaFixture(f)
		page, _ := p.Read(0)
		return append([]byte(nil), page...)
	}
	f.Add(written())
	named := written()
	binary.BigEndian.PutUint32(named[offReserved:], 1)
	f.Add(named)
	f.Add(make([]byte, sharePageSize))
	f.Fuzz(func(t *testing.T, meta []byte) {
		p := metaFixture(t)
		page := make([]byte, sharePageSize)
		copy(page, meta)
		if err := p.Write(0, page); err != nil {
			t.Fatal(err)
		}
		tr, err := Open(p)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open error %v is not ErrCorrupt", err)
			}
			return
		}
		if err := tr.writeMeta(); err != nil {
			t.Fatal(err)
		}
		back, _ := p.Read(0)
		if back[offKind] != page[offKind] || !bytes.Equal(back[offMagic:offReserved+4], page[offMagic:offReserved+4]) {
			t.Fatalf("accepted meta page reads back as % x, was % x", back[:offReserved+4], page[:offReserved+4])
		}
		tr.Check()
		tr.Get(shareKey(7))
	})
}

// metaFixture returns the pages of a tree of a few leaves on 256-byte pages.
func metaFixture(tb testing.TB) *MemPager {
	p := NewMemPager(sharePageSize, 64)
	tr, err := Create(p)
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		if err := tr.Put(shareKey(k), bytes.Repeat([]byte{byte(k)}, 20)); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// FuzzTreeOps drives the tree through Put, Delete, Get and Scan on small
// pages, so that leaves fill, share with a sibling and split within a few
// dozen steps, and holds every result against a map, with Check after every
// step and a reopened tree's full scan at the end. An input is a list of
// 3-byte steps: the operation (byte mod 4: Put, Delete, Get, Scan), the key
// (its byte as four decimal digits) and, for a Put, the value length (mod
// 64). The seeds are the share tests' three sequences: one that shares
// left, one that shares right, one that must split. `go test -fuzz
// FuzzTreeOps ./internal/btree` explores.
func FuzzTreeOps(f *testing.F) {
	for _, seq := range [][]int{shareLeftSeq, shareRightSeq, mustSplitSeq} {
		var in []byte
		for _, k := range seq {
			in = append(in, opPut, byte(k), 40)
		}
		in = append(in, opGet, byte(seq[len(seq)-1]), 0, opScan, 0, 0, opDelete, byte(seq[0]), 0)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		steps := len(in) / 3
		// A Put allocates at most one page per level; a tree of a few
		// hundred keys on 256-byte pages is well under eight levels.
		p := NewMemPager(sharePageSize, 8*steps+8)
		tr, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{}
		for i := 0; i < steps; i++ {
			op, k := in[3*i]%4, shareKey(int(in[3*i+1]))
			switch op {
			case opPut:
				v := bytes.Repeat([]byte{byte(i)}, int(in[3*i+2]%64))
				if err := tr.Put(k, v); err != nil {
					t.Fatalf("step %d: Put %s: %v", i, k, err)
				}
				want[string(k)] = v
			case opDelete:
				err := tr.Delete(k)
				if _, ok := want[string(k)]; ok != (err == nil) || err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: Delete %s: %v, present %v", i, k, err, ok)
				}
				delete(want, string(k))
			case opGet:
				v, err := tr.Get(k)
				if w, ok := want[string(k)]; ok != (err == nil) || !bytes.Equal(v, w) || err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: Get %s = %q, %v; want %q, present %v", i, k, v, err, w, ok)
				}
			case opScan:
				// At most eight entries from k: the map's keys >= k, in order.
				var got []string
				if err := tr.Scan(k, func(key, v []byte) bool {
					if !bytes.Equal(v, want[string(key)]) {
						t.Errorf("step %d: Scan gave %s = %q, want %q", i, key, v, want[string(key)])
					}
					got = append(got, string(key))
					return len(got) < 8
				}); err != nil {
					t.Fatalf("step %d: Scan %s: %v", i, k, err)
				}
				if exp := sortedFrom(want, string(k), 8); fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("step %d: Scan %s = %v, want %v", i, k, got, exp)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("step %d: Check: %v", i, err)
			}
		}
		re, err := Open(p)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var got []string
		if err := re.Scan(nil, func(key, _ []byte) bool { got = append(got, string(key)); return true }); err != nil {
			t.Fatal(err)
		}
		if exp := sortedFrom(want, "", len(want)); fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Fatalf("reopened tree holds %v, want %v", got, exp)
		}
	})
}

// FuzzTreeOps' operations.
const (
	opPut = iota
	opDelete
	opGet
	opScan
)

// sortedFrom returns up to n of m's keys >= from, ascending.
func sortedFrom(m map[string][]byte, from string, n int) []string {
	var keys []string
	for k := range m {
		if k >= from {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys[:min(n, len(keys))]
}
