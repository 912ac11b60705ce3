package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestBorrowedPagesUnderMutation hammers the readers that walk name-table
// pages in place — Stat (Get), Open, List (Scan) — against creates, deletes
// and renames that rewrite the very leaves they are reading: stable and
// churning names interleave in key order, and the cache is small enough to
// evict and re-read pages throughout. Run under -race: a reader must never
// see a torn entry, and the cache's wild-store check — the guard against a
// walker writing through a borrowed page — must never fire (it would
// surface here as an error from a read).
func TestBorrowedPagesUnderMutation(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			cfg := testConfig()
			cfg.CacheSize = 4
			cfg.AsyncApply = async
			v, _, _ := newTestVolumeCfg(t, cfg)
			const dirs, stable = 24, 38
			name := func(d, f int) string { return fmt.Sprintf("dir%02d/file-%02d", d, f) }
			for d := 0; d < dirs; d++ {
				for f := 0; f < stable; f++ {
					if _, err := v.Create(name(d, f), payload(100+d*stable+f, 1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Clean pages are evictable; written ones stay until flushed.
			if err := v.DropCaches(); err != nil {
				t.Fatal(err)
			}
			missesBefore := v.Stats().Cache.Misses
			stop := make(chan struct{})
			var readers, writers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						d, f := i%dirs, (i*7)%stable
						e, err := v.Stat(name(d, f), 0)
						if err != nil || e.ByteSize != uint64(100+d*stable+f) {
							t.Errorf("Stat %s: %+v, %v", name(d, f), e, err)
							return
						}
						if i%3 == 0 {
							if _, err := v.Open(name(d, f), 0); err != nil {
								t.Errorf("Open %s: %v", name(d, f), err)
								return
							}
						}
						seen := 0
						err = v.List(fmt.Sprintf("dir%02d/file-", d), func(e Entry) bool {
							var ff int
							if n, _ := fmt.Sscanf(e.Name, fmt.Sprintf("dir%02d/file-%%02d", d), &ff); n == 1 && len(e.Name) == len(name(d, ff)) {
								if e.ByteSize != uint64(100+d*stable+ff) {
									t.Errorf("List: %s has size %d", e.Name, e.ByteSize)
								}
								seen++
							}
							return true
						})
						if err != nil || seen != stable {
							t.Errorf("List dir%02d: %d stable entries, %v", d, seen, err)
							return
						}
					}
				}(r)
			}
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < 120; i++ {
						d, f := (i+w)%dirs, (i*5+w)%stable
						tmp := fmt.Sprintf("%s.tmp%d", name(d, f), w)
						if _, err := v.Create(tmp, payload(40+i, 9)); err != nil {
							t.Errorf("Create %s: %v", tmp, err)
							return
						}
						moved := tmp + "-moved"
						if err := v.Rename(tmp, moved); err != nil {
							t.Errorf("Rename %s: %v", tmp, err)
							return
						}
						if err := v.Delete(moved, 0); err != nil {
							t.Errorf("Delete %s: %v", moved, err)
							return
						}
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
			if st := v.Stats(); st.Cache.Misses-missesBefore < 50 {
				t.Fatal("the name-table cache never missed: pages were not being evicted under the readers")
			}
		})
	}
}

// TestListAllocsPerEntry is List's allocation gate: a listing of n files
// and the links among them allocates a name string per entry, a target string
// per link and a constant — the decode goes into one Entry whose run table is
// reused from entry to entry, across the links' empty ones too, not a heap
// Entry and a run table per listed name.
func TestListAllocsPerEntry(t *testing.T) {
	v, _, _ := newTestVolume(t)
	const n, links, slack = 64, 16, 12
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dir/file-%02d", i)
		if _, err := v.Create(name, payload(300+i, byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%(n/links) == 0 {
			if _, err := v.CreateLink(name+"-link", name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := v.Create("dis/after", payload(300, 1)); err != nil {
		t.Fatal(err)
	}
	seen := 0
	list := func() {
		seen = 0
		if err := v.List("dir/", func(e Entry) bool {
			if link := e.LinkTarget != ""; link != (len(e.Runs) == 0) || !link && e.Pages() != 1 {
				t.Fatalf("%s has runs %v, link target %q", e.Name, e.Runs, e.LinkTarget)
			}
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, list)
	if seen != n+links {
		t.Fatalf("listed %d entries, want %d", seen, n+links)
	}
	t.Logf("List of %d files and %d links: %v allocs", n, links, allocs)
	if allocs > n+2*links+slack {
		t.Errorf("List of %d files and %d links allocates %v times; want at most %d names, %d targets and %d more", n, links, allocs, n+links, links, slack)
	}
}
