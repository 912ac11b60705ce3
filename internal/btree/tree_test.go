package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

const testPageSize = 2048

func newTestTree(t *testing.T, pages int) *Tree {
	t.Helper()
	tr, err := Create(NewMemPager(testPageSize, pages))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tr
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, 16)
	if _, err := tr.Get([]byte("nothing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty: %v, want ErrNotFound", err)
	}
	if n, err := tr.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestPutGetSingle(t *testing.T) {
	tr := newTestTree(t, 16)
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestPutReplace(t *testing.T) {
	tr := newTestTree(t, 16)
	if err := tr.Put([]byte("a"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("a"), []byte("new-and-longer-value")); err != nil {
		t.Fatal(err)
	}
	v, _ := tr.Get([]byte("a"))
	if string(v) != "new-and-longer-value" {
		t.Fatalf("Get after replace = %q", v)
	}
	if n, _ := tr.Len(); n != 1 {
		t.Fatalf("Len after replace = %d", n)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tr := newTestTree(t, 16)
	if err := tr.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestTooLargeRejected(t *testing.T) {
	tr := newTestTree(t, 16)
	big := make([]byte, testPageSize)
	if err := tr.Put([]byte("k"), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized put: %v, want ErrTooLarge", err)
	}
}

func TestManyInsertsAndSplits(t *testing.T) {
	tr := newTestTree(t, 4096)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d after %d inserts, expected splits", tr.Height(), n)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for i := 0; i < n; i++ {
		v, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(v, value(i)) {
			t.Fatalf("Get %d = %q", i, v)
		}
	}
	if cnt, _ := tr.Len(); cnt != n {
		t.Fatalf("Len = %d, want %d", cnt, n)
	}
}

func TestRandomInsertOrder(t *testing.T) {
	tr := newTestTree(t, 4096)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(3000)
	for _, i := range perm {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Scan must return keys in sorted order.
	var prev []byte
	err := tr.Scan(nil, func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violated: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t, 1024)
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if err := tr.Delete(key(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	for i := 0; i < 500; i++ {
		_, err := tr.Get(key(i))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d still present: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving key %d lost: %v", i, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after deletes: %v", err)
	}
	if n, _ := tr.Len(); n != 250 {
		t.Fatalf("Len = %d, want 250", n)
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	tr := newTestTree(t, 1024)
	for i := 0; i < 300; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := tr.Len(); n != 0 {
		t.Fatalf("Len = %d after deleting all", n)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Len(); n != 300 {
		t.Fatalf("Len = %d after reinsert", n)
	}
}

func TestScanRange(t *testing.T) {
	tr := newTestTree(t, 1024)
	for i := 0; i < 100; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Scan(key(90), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != string(key(90)) {
		t.Fatalf("range scan = %v", got)
	}
	// Early termination.
	count := 0
	tr.Scan(nil, func(_, _ []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early-terminated scan visited %d", count)
	}
}

func TestOpenExisting(t *testing.T) {
	p := NewMemPager(testPageSize, 1024)
	tr, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr2, err := Open(p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Height() != tr.Height() {
		t.Fatalf("height %d != %d", tr2.Height(), tr.Height())
	}
	v, err := tr2.Get(key(500))
	if err != nil || !bytes.Equal(v, value(500)) {
		t.Fatalf("Get on reopened tree: %q, %v", v, err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	p := NewMemPager(testPageSize, 4)
	buf, _ := p.Read(0)
	copy(buf, []byte("garbage meta page"))
	if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on garbage: %v, want ErrCorrupt", err)
	}
}

func TestPageSpaceExhaustion(t *testing.T) {
	tr := newTestTree(t, 3) // meta + root + one spare
	var err error
	for i := 0; i < 100000; i++ {
		if err = tr.Put(key(i), bytes.Repeat([]byte("x"), 100)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v", err)
	}
}

// TestOpenRefusesReservedMetaBytes: bytes 32..35 of the meta page are
// reserved and written as zero. A meta page with anything there is not one
// the tree wrote, and Open refuses it.
func TestOpenRefusesReservedMetaBytes(t *testing.T) {
	p := NewMemPager(testPageSize, 64)
	tr, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(p); err != nil {
		t.Fatalf("Open of the tree's own meta page: %v", err)
	}
	meta, _ := p.Read(0)
	meta = append([]byte(nil), meta...)
	binary.BigEndian.PutUint32(meta[offReserved:], tr.root) // a live page
	if err := p.Write(0, meta); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with a nonzero reserved word: %v, want ErrCorrupt", err)
	}
}

func TestCheckDetectsSmashedPage(t *testing.T) {
	p := NewMemPager(testPageSize, 1024)
	tr, _ := Create(p)
	for i := 0; i < 2000; i++ {
		if err := tr.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Smash a non-meta page with garbage that still parses as slots out
	// of order.
	for id := uint32(1); id < tr.nextFresh; id++ {
		buf, _ := p.Read(id)
		if buf[offKind] == kindLeaf {
			garbage := make([]byte, testPageSize)
			garbage[offKind] = 0x7F
			p.Write(id, garbage)
			break
		}
	}
	if err := tr.Check(); err == nil {
		t.Fatal("Check missed a smashed page")
	}
}

func TestMaxCellBoundary(t *testing.T) {
	tr := newTestTree(t, 256)
	max := MaxCell(testPageSize)
	k := []byte("boundary-key")
	v := bytes.Repeat([]byte("v"), max-4-len(k))
	if err := tr.Put(k, v); err != nil {
		t.Fatalf("exact-max cell rejected: %v", err)
	}
	if err := tr.Put(k, append(v, 'x')); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-max cell accepted: %v", err)
	}
}

func TestLargeCellsSplitCorrectly(t *testing.T) {
	tr := newTestTree(t, 4096)
	max := MaxCell(testPageSize)
	for i := 0; i < 200; i++ {
		k := key(i)
		v := bytes.Repeat([]byte{byte(i)}, max-4-len(k))
		if err := tr.Put(k, v); err != nil {
			t.Fatalf("Put big %d: %v", i, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("Get big %d: %v", i, err)
		}
		if len(v) != max-4-len(key(i)) || (len(v) > 0 && v[0] != byte(i)) {
			t.Fatalf("big value %d corrupted", i)
		}
	}
}

// Property: the tree agrees with a reference map under a random operation
// sequence.
func TestQuickTreeMatchesMap(t *testing.T) {
	type op struct {
		Key    uint16
		Val    uint8
		Delete bool
	}
	f := func(ops []op) bool {
		tr, err := Create(NewMemPager(testPageSize, 4096))
		if err != nil {
			return false
		}
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%05d", o.Key%500)
			if o.Delete {
				delete(ref, k)
				if err := tr.Delete([]byte(k)); err != nil && !errors.Is(err, ErrNotFound) {
					return false
				}
			} else {
				v := fmt.Sprintf("v%d", o.Val)
				ref[k] = v
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
			}
		}
		if err := tr.Check(); err != nil {
			return false
		}
		n, err := tr.Len()
		if err != nil || n != len(ref) {
			return false
		}
		for k, v := range ref {
			got, err := tr.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scan visits exactly the keys >= start, in order.
func TestQuickScanIsSortedSuffix(t *testing.T) {
	f := func(keys []uint16, start uint16) bool {
		tr, err := Create(NewMemPager(testPageSize, 4096))
		if err != nil {
			return false
		}
		set := map[string]bool{}
		for _, k := range keys {
			s := fmt.Sprintf("k%05d", k)
			set[s] = true
			if err := tr.Put([]byte(s), []byte("v")); err != nil {
				return false
			}
		}
		startKey := fmt.Sprintf("k%05d", start)
		var want []string
		for s := range set {
			if s >= startKey {
				want = append(want, s)
			}
		}
		sort.Strings(want)
		var got []string
		err = tr.Scan([]byte(startKey), func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		})
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCompaction(t *testing.T) {
	n := newNode(1, testPageSize, kindLeaf)
	// Fill, delete everything, and verify space is reclaimable.
	i := 0
	for n.ensureSpace(leafCellSize(key(i), value(i))) {
		n.insertLeafCell(n.nslots(), key(i), value(i))
		i++
	}
	filled := n.nslots()
	if filled == 0 {
		t.Fatal("no cells inserted")
	}
	for n.nslots() > 0 {
		n.deleteSlot(0)
	}
	if !n.ensureSpace(leafCellSize(key(0), value(0))) {
		t.Fatal("space not reclaimed after deleting all cells")
	}
	n.insertLeafCell(0, key(0), value(0))
	if err := n.validate(); err != nil {
		t.Fatal(err)
	}
}
