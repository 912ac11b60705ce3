package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/disk"
	"repro/internal/vam"
)

// TestRunTablesNeverAdjacent holds the run-table invariant the transfer
// paths rely on: no entry's run table holds a run that ends where the next
// one begins, so ContiguousFrom's per-run walk is the whole transfer plan. A
// seeded mix of creates, Extends, growing WriteAts, Contracts and Deletes
// churns a volume — raw and with the data cache — until its free space is
// fragmented; then every entry in the name table is checked, and every live
// file reads back what was written.
func TestRunTablesNeverAdjacent(t *testing.T) {
	for _, mode := range []struct {
		name  string
		pages int
	}{{"raw", -1}, {"cached", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.DataCachePages = mode.pages
			v, _, _ := newTestVolumeWith(t, cfg)
			churnRunTables(t, v)
		})
	}
}

func churnRunTables(t *testing.T, v *Volume) {
	rng := rand.New(rand.NewSource(44))
	type live struct {
		f    *File
		data []byte // the file's bytes, up to its byte size
	}
	files := map[string]*live{}
	var names []string
	split := 0 // creates that Alloc gave more than one run
	// noSpace reports an allocation the full volume refused; any other
	// error fails the test.
	noSpace := func(err error) bool {
		if err != nil && !errors.Is(err, vam.ErrNoSpace) && !errors.Is(err, alloc.ErrFragmented) {
			t.Fatal(err)
		}
		return err != nil
	}
	pick := func() (string, *live) {
		name := names[rng.Intn(len(names))]
		return name, files[name]
	}
	// Fill the volume with files of 60 pages, then delete every other one:
	// the free space is holes of 61 pages, which a bigger create spans.
	for i := 0; ; i++ {
		name := fmt.Sprintf("fill/%04d", i)
		data := payload(60*disk.SectorSize, byte(i))
		f, err := v.Create(name, data)
		if noSpace(err) {
			break
		}
		files[name] = &live{f, data}
		names = append(names, name)
	}
	kept := names[:0]
	for i, name := range names {
		if i%2 == 0 {
			kept = append(kept, name)
		} else if err := v.Delete(name, 0); err != nil {
			t.Fatal(err)
		} else {
			delete(files, name)
		}
	}
	names = kept
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		op := rng.Intn(10)
		switch {
		case op < 3:
			name := fmt.Sprintf("runs/%04d", i)
			data := payload(rng.Intn(200*disk.SectorSize), byte(i))
			f, err := v.Create(name, data)
			if noSpace(err) {
				continue
			}
			files[name] = &live{f, data}
			if len(f.e.Runs) > 1 {
				split++
			}
			names = append(names, name)
		case op < 5:
			_, l := pick()
			noSpace(l.f.Extend(1 + rng.Intn(40)))
		case op < 7:
			_, l := pick()
			p := payload(1+rng.Intn(40*disk.SectorSize), byte(i))
			if _, err := l.f.WriteAt(p, int64(len(l.data))); !noSpace(err) {
				l.data = append(l.data, p...)
			}
		case op < 8:
			_, l := pick()
			n := rng.Intn(l.f.Pages() + 1)
			if err := l.f.Contract(n); err != nil {
				t.Fatal(err)
			}
			l.data = l.data[:min(len(l.data), n*disk.SectorSize)]
		default:
			name, _ := pick()
			if err := v.Delete(name, 0); err != nil {
				t.Fatal(err)
			}
			delete(files, name)
			j := slices.Index(names, name)
			names = slices.Delete(names, j, j+1)
		}
		if i%25 == 0 {
			// Deleted pages become allocatable at the commit.
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	entries := 0
	err := v.List("", func(e Entry) bool {
		entries++
		for i := 1; i < len(e.Runs); i++ {
			if prev := e.Runs[i-1]; prev.Start+prev.Len == e.Runs[i].Start {
				t.Errorf("%s!%d: runs %d and %d meet on the disk: %v", e.Name, e.Version, i-1, i, e.Runs)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// The check bites only if Alloc had to make tables of more than one run.
	if entries != len(files) || split == 0 {
		t.Fatalf("%d entries for %d live files; %d creates of more than one run", entries, len(files), split)
	}
	for name, l := range files {
		got, err := l.f.ReadAll()
		if err != nil || !bytes.Equal(got, l.data) {
			t.Fatalf("%s reads back %d bytes (%v), want the %d written", name, len(got), err, len(l.data))
		}
	}
}
