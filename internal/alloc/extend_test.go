package alloc

import (
	"reflect"
	"testing"

	"repro/internal/vam"
)

// TestExtend places the growth of a file in each situation Extend tells
// apart. The region is 10,000 pages with the small/big boundary at 2,500 and
// the small-file threshold at 8 pages.
func TestExtend(t *testing.T) {
	cases := []struct {
		name      string
		prepare   func(a *Allocator)
		runs      []Run
		more      int
		want      []Run // the pages added
		wantTable []Run // Join(runs, added)
		inPlace   bool
	}{{
		name:      "in place: a big file's run is lengthened",
		runs:      []Run{{10, 1}, {5000, 64}},
		more:      64,
		want:      []Run{{5064, 64}},
		wantTable: []Run{{10, 1}, {5000, 128}},
		inPlace:   true,
	}, {
		name:      "blocked by a neighbour: the next free stretch above",
		prepare:   func(a *Allocator) { a.v.MarkAllocated(5064, 10) },
		runs:      []Run{{10, 1}, {5000, 64}},
		more:      64,
		want:      []Run{{5074, 64}},
		wantTable: []Run{{10, 1}, {5000, 64}, {5074, 64}},
	}, {
		// An uncommitted delete's pages stay allocated in the VAM until its
		// commit lands.
		name:      "blocked by a page freed by an uncommitted delete",
		prepare:   func(a *Allocator) { a.v.MarkAllocated(5064, 1) },
		runs:      []Run{{10, 1}, {5000, 64}},
		more:      64,
		want:      []Run{{5065, 64}},
		wantTable: []Run{{10, 1}, {5000, 64}, {5065, 64}},
	}, {
		name:      "at the region edge: wraps to the start of the big-file area",
		runs:      []Run{{10, 1}, {9936, 64}},
		more:      64,
		want:      []Run{{2500, 64}},
		wantTable: []Run{{10, 1}, {9936, 64}, {2500, 64}},
	}, {
		name:      "a hole a committed delete left below is not taken while there is room above",
		prepare:   func(a *Allocator) { a.v.MarkAllocated(2500, 3000); a.v.MarkFree(3000, 100) },
		runs:      []Run{{10, 1}, {5400, 100}},
		more:      64,
		want:      []Run{{5500, 64}},
		wantTable: []Run{{10, 1}, {5400, 164}},
		inPlace:   true,
	}, {
		name:      "a stream's first growth leaves the small-file area",
		runs:      []Run{{10, 1}},
		more:      64,
		want:      []Run{{2500, 64}},
		wantTable: []Run{{10, 1}, {2500, 64}},
	}, {
		name:      "small growth of a small file stays with its leader",
		runs:      []Run{{10, 2}},
		more:      3,
		want:      []Run{{12, 3}},
		wantTable: []Run{{10, 5}},
		inPlace:   true,
	}, {
		name:      "small growth, blocked: the small-file area's first fit",
		prepare:   func(a *Allocator) { a.v.MarkAllocated(0, 13) },
		runs:      []Run{{10, 2}},
		more:      3,
		want:      []Run{{13, 3}},
		wantTable: []Run{{10, 2}, {13, 3}},
	}, {
		name:      "growth past the threshold does not continue among the small files",
		runs:      []Run{{10, 6}},
		more:      8,
		want:      []Run{{2500, 8}},
		wantTable: []Run{{10, 6}, {2500, 8}},
	}, {
		name:      "no stretch long enough anywhere: Alloc's pieces",
		prepare:   func(a *Allocator) { a.v.MarkAllocated(0, 10000); a.v.MarkFree(4000, 40); a.v.MarkFree(6000, 40) },
		runs:      []Run{{10, 1}, {3000, 64}},
		more:      64,
		want:      []Run{{6000, 40}, {4016, 24}},
		wantTable: []Run{{10, 1}, {3000, 64}, {6000, 40}, {4016, 24}},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, v := newTestAllocator(t, 10000)
			for _, r := range tc.runs {
				v.MarkAllocated(int(r.Start), int(r.Len))
			}
			if tc.prepare != nil {
				tc.prepare(a)
			}
			free := v.FreeCount()
			got, err := a.Extend(tc.runs, tc.more)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("added %v, want %v", got, tc.want)
			}
			if table := Join(tc.runs, got); !reflect.DeepEqual(table, tc.wantTable) {
				t.Fatalf("run table %v, want %v", table, tc.wantTable)
			}
			if v.FreeCount() != free-tc.more {
				t.Fatalf("%d pages left the free map, want %d", free-v.FreeCount(), tc.more)
			}
			for _, r := range got {
				for p := r.Start; p < r.Start+r.Len; p++ {
					if v.IsFree(int(p)) {
						t.Fatalf("page %d handed out but still free", p)
					}
				}
			}
			want := Stats{ExtendsElsewhere: 1}
			if tc.inPlace {
				want = Stats{ExtendsInPlace: 1}
			}
			if st := a.Stats(); st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
		})
	}
}

// TestExtendNoSpace: a failed extension leaves the free map as it was.
func TestExtendNoSpace(t *testing.T) {
	a, v := newTestAllocator(t, 1000)
	v.MarkAllocated(0, 1000)
	v.MarkFree(500, 10)
	if _, err := a.Extend([]Run{{0, 1}, {400, 64}}, 64); err == nil {
		t.Fatal("extension by more pages than are free succeeded")
	}
	if v.FreeCount() != 10 {
		t.Fatalf("failed extension left %d pages free, want 10", v.FreeCount())
	}
}

// TestReserve: a reservation is the first stretch of the big-file area above
// the boundary that holds it; hand-outs come from its front, the first one
// away from the file's leader and each later one in place; what is left goes
// back free. A reservation that fits nowhere takes nothing.
func TestReserve(t *testing.T) {
	a, v := newTestAllocator(t, 10000)
	v.MarkAllocated(10, 1)     // the file's leader
	v.MarkAllocated(2500, 100) // a hole of 50 pages above the boundary …
	v.MarkFree(2540, 50)       // … too short for the reservation
	free := v.FreeCount()
	r, ok := a.Reserve(300)
	if !ok || r != (Run{2600, 300}) {
		t.Fatalf("reserved %v (%v), want {2600 300}", r, ok)
	}
	if v.FreeCount() != free-300 {
		t.Fatalf("%d pages left the free map, want 300", free-v.FreeCount())
	}
	runs := []Run{{10, 1}}
	for _, more := range []int{64, 64} {
		got := a.Take(&r, runs, more)
		if len(got) != 1 || got[0].Start != uint32(2600+Pages(runs)-1) || got[0].Len != uint32(more) {
			t.Fatalf("took %v after %v, want %d pages from the reservation's front", got, runs, more)
		}
		runs = Join(runs, got)
	}
	if got := a.Take(&r, runs, 500); !reflect.DeepEqual(got, []Run{{2728, 172}}) || r.Len != 0 {
		t.Fatalf("took %v, leaving %v; want the last 172 pages and an empty reservation", got, r)
	}
	if got := a.Take(&r, runs, 8); got != nil {
		t.Fatalf("an empty reservation handed out %v", got)
	}
	r, ok = a.Reserve(100)
	if !ok || r != (Run{2900, 100}) {
		t.Fatalf("second reservation %v (%v), want {2900 100}", r, ok)
	}
	a.Take(&r, []Run{{11, 1}}, 30)
	a.Release(&r)
	if r != (Run{}) || !v.IsFree(2930) || !v.IsFree(2999) || v.IsFree(2929) {
		t.Fatalf("release left %v and the map wrong around [2930,3000)", r)
	}
	if _, ok := a.Reserve(10000); ok {
		t.Fatal("a reservation larger than any free stretch succeeded")
	}
	want := Stats{ExtendsInPlace: 2, ExtendsElsewhere: 2, Reserved: 2, ReservedReleased: 70}
	if st := a.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func BenchmarkExtend(b *testing.B) {
	const pages = 600000
	v := vam.New(pages)
	v.MarkFree(0, pages)
	a, err := New(v, Config{Lo: 0, Hi: pages, SmallThreshold: 8})
	if err != nil {
		b.Fatal(err)
	}
	runs := []Run{{10, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stream of 64-page extensions, restarted when the file reaches
		// 16 MB so that the area never fills.
		if Pages(runs) > 32768 {
			a.FreeNow(runs[1:])
			runs = runs[:1]
		}
		grown, err := a.Extend(runs, 64)
		if err != nil {
			b.Fatal(err)
		}
		runs = Join(runs, grown)
	}
}
