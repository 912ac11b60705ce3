package btree

import (
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/allocgate"
)

// cowPager is the FSD name-table cache reduced to its ownership rule: Write
// keeps the caller's buffer as the page and never changes it again, Read
// lends it out. Like that cache it checksums a page when it takes it and on
// every Read, so a tree that wrote through a borrowed page — or into a
// buffer it had already stored — fails the next Read of it.
type cowPager struct {
	pageSize int

	mu    sync.Mutex
	pages [][]byte
	sums  []uint32
}

func newCOWPager(pageSize, n int) *cowPager {
	return &cowPager{pageSize: pageSize, pages: make([][]byte, n), sums: make([]uint32, n)}
}

func (p *cowPager) PageSize() int { return p.pageSize }
func (p *cowPager) NumPages() int { return len(p.pages) }

func (p *cowPager) Read(id uint32) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return nil, fmt.Errorf("page %d out of range", id)
	}
	if p.pages[id] == nil {
		p.pages[id] = make([]byte, p.pageSize)
		p.sums[id] = crc32.ChecksumIEEE(p.pages[id])
	}
	if crc32.ChecksumIEEE(p.pages[id]) != p.sums[id] {
		return nil, fmt.Errorf("page %d changed after it was stored", id)
	}
	return p.pages[id], nil
}

func (p *cowPager) Write(id uint32, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) || len(data) != p.pageSize {
		return fmt.Errorf("bad write of %d bytes to page %d", len(data), id)
	}
	p.pages[id] = data
	p.sums[id] = crc32.ChecksumIEEE(data)
	return nil
}

// dirKey names entry f of directory d the way the name table does: a
// 38-entry directory is one prefix.
func dirKey(d, f int) []byte {
	return []byte(fmt.Sprintf("dir%04d/file-%02d\x00\x00\x00\x00\x01", d, f))
}

const dirEntries = 38

// newDeepTree builds a height-3 tree of dirs 38-entry directories with
// 96-byte values over a copy-on-write pager.
func newDeepTree(tb testing.TB, dirs int) *Tree {
	tb.Helper()
	tr, err := Create(newCOWPager(2048, 4096))
	if err != nil {
		tb.Fatal(err)
	}
	val := make([]byte, 96)
	for d := 0; d < dirs; d++ {
		for f := 0; f < dirEntries; f++ {
			if err := tr.Put(dirKey(d, f), val); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if tr.Height() != 3 {
		tb.Fatalf("height %d, want 3", tr.Height())
	}
	return tr
}

// TestGetAllocs is the allocation gate of the borrowed descent: a lookup
// three levels deep allocates its result and nothing else, so one that misses
// allocates nothing.
func TestGetAllocs(t *testing.T) {
	tr := newDeepTree(t, 200)
	k := dirKey(137, 21)
	get := func() {
		if _, err := tr.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, get); n > 2 {
		t.Errorf("Get: %v allocs, want <= 2", n)
	}
	if b := allocgate.BytesPerRun(200, get); b > 256 {
		t.Errorf("Get: %d bytes, want <= 256", b)
	}
	miss := dirKey(137, 99)
	if n := testing.AllocsPerRun(200, func() { tr.Get(miss) }); n != 0 {
		t.Errorf("Get of a missing key: %v allocs, want 0", n)
	}
}

// TestScanAllocs: listing one 38-entry directory allocates nothing, per
// entry or otherwise.
func TestScanAllocs(t *testing.T) {
	tr := newDeepTree(t, 200)
	start := []byte("dir0137/")
	seen := 0
	n := testing.AllocsPerRun(200, func() {
		seen = 0
		tr.Scan(start, func(k, _ []byte) bool {
			seen++
			return seen < dirEntries
		})
	})
	if seen != dirEntries {
		t.Fatalf("scan saw %d entries, want %d", seen, dirEntries)
	}
	if n != 0 {
		t.Errorf("Scan of %d entries: %v allocs, want 0", dirEntries, n)
	}
}

// TestMutationsNeverWriteThroughViews runs splits at every level, deletes,
// replacements and page frees over the checksumming pager: any write into a
// borrowed page, or into a buffer after store, fails a later Read.
func TestMutationsNeverWriteThroughViews(t *testing.T) {
	tr := newDeepTree(t, 120)
	val := make([]byte, 200)
	for d := 0; d < 120; d += 3 {
		for f := 0; f < dirEntries; f++ {
			if err := tr.Delete(dirKey(d, f)); err != nil {
				t.Fatal(err)
			}
		}
		for f := 0; f < dirEntries; f += 2 {
			if err := tr.Put(dirKey(d+1, f), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(dirKey(1, 0))
	if err != nil || len(got) != len(val) {
		t.Fatalf("Get after churn: %d bytes, %v", len(got), err)
	}
	// The value Get returned is the caller's: scribbling on it must not
	// reach the page.
	for i := range got {
		got[i] = 0xFF
	}
	if _, err := tr.Get(dirKey(1, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestReadersBorrowWhileWritersCopy hammers borrowed reads against
// mutations; under -race it proves a reader never shares a buffer with a
// writer, and the pager's checksum that no page tears.
func TestReadersBorrowWhileWritersCopy(t *testing.T) {
	tr := newDeepTree(t, 60)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := (i*7 + r) % 60
				if d%2 == 1 { // odd directories are never mutated
					v, err := tr.Get(dirKey(d, i%dirEntries))
					if err != nil || len(v) != 96 {
						t.Errorf("Get: %d bytes, %v", len(v), err)
						return
					}
				}
				var prev []byte
				err := tr.Scan(dirKey(d, 0), func(k, _ []byte) bool {
					if prev != nil && string(prev) >= string(k) {
						t.Errorf("scan out of order: %q then %q", prev, k)
					}
					prev = append(prev[:0], k...)
					return len(k) > 7 && string(k[:7]) == string(dirKey(d, 0)[:7])
				})
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
			}
		}(r)
	}
	val := make([]byte, 150)
	for round := 0; round < 6; round++ {
		for d := 0; d < 60; d += 2 {
			for f := 0; f < dirEntries; f++ {
				var err error
				if round%2 == 0 {
					err = tr.Delete(dirKey(d, f))
				} else {
					err = tr.Put(dirKey(d, f), val)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

var sinkValue []byte

func BenchmarkGetCOW(b *testing.B) {
	tr := newDeepTree(b, 320)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = dirKey(i*37%320, i%dirEntries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := tr.Get(keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		sinkValue = v
	}
}

// BenchmarkScanDirCOW lists one 38-entry directory per iteration.
func BenchmarkScanDirCOW(b *testing.B) {
	tr := newDeepTree(b, 320)
	starts := make([][]byte, 320)
	for d := range starts {
		starts[d] = []byte(fmt.Sprintf("dir%04d/", d))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := 0
		tr.Scan(starts[i%len(starts)], func(_, _ []byte) bool {
			seen++
			return seen < dirEntries
		})
	}
}
