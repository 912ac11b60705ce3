package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
)

const (
	rewriteSize  = 200 << 10 // the predecessors' size: 400 data pages
	rewriteChunk = 32 << 10  // one wire write chunk: 64 data pages
)

// rewrite creates a version of name holding rewriteSize bytes, forces it, and
// returns the handle of a new, empty version above it: a stream about to
// rewrite the file.
func rewrite(t *testing.T, v *Volume, name string, seed byte) *File {
	t.Helper()
	if _, err := v.Create(name, payload(rewriteSize, seed)); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	f, err := v.Create(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// streamChunk writes the chunk of data at off through f.
func streamChunk(t *testing.T, f *File, data []byte, off int) {
	t.Helper()
	if _, err := f.WriteAt(data[off:min(off+rewriteChunk, len(data))], int64(off)); err != nil {
		t.Fatal(err)
	}
}

// wantReadBack reads the newest version of name whole and compares it.
func wantReadBack(t *testing.T, v *Volume, name string, want []byte) {
	t.Helper()
	f, err := v.Open(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s reads back %d bytes (%v); want the %d written", name, len(got), err, len(want))
	}
}

// wantMapIsRebuild fails unless v's allocation map is the one its name table
// rebuilds: no page allocated that no entry names.
func wantMapIsRebuild(t *testing.T, v *Volume) {
	t.Helper()
	v.vmMu.Lock()
	got := vamBitmap(v.vm)
	v.vmMu.Unlock()
	if want, _ := chainWalkRebuild(t, v); !bytes.Equal(got, want) {
		t.Fatal("the allocation map differs from the name table's rebuild")
	}
}

// TestRewrittenStreamsAreOneRunEach: two handles stream new versions of files
// whose predecessors are 200 KB, by turns, 32 KB a turn, with a force between
// rounds. Each version's first growth reserves its predecessor's size, so
// each ends as its leader and one data run, where alloc.Extend alone has
// them take turns at the pages behind each other; and each reads back.
func TestRewrittenStreamsAreOneRunEach(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		v, _, _ := newTestVolumeWith(t, cfg)
		var fs [2]*File
		var data [2][]byte
		for i := range fs {
			fs[i] = rewrite(t, v, fmt.Sprintf("r/%d", i), byte(i))
			data[i] = payload(rewriteSize, byte(10+i))
		}
		for off := 0; off < rewriteSize; off += rewriteChunk {
			for i := range fs {
				streamChunk(t, fs[i], data[i], off)
			}
			if err := v.Force(); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range fs {
			runs := f.Entry().Runs
			if len(runs) != 2 || runs[0].Len != 1 || runs[1].Len != rewriteSize/disk.SectorSize {
				t.Errorf("r/%d has runs %v; want its leader's and one of %d pages", i, runs, rewriteSize/disk.SectorSize)
			}
			wantReadBack(t, v, fmt.Sprintf("r/%d", i), data[i])
		}
		// Each stream left its leader once, into its reservation; every
		// later growth lengthened the run, and nothing was left to give back.
		st := v.Stats().Alloc
		if st.Reserved != 2 || st.ExtendsElsewhere != 2 || st.ExtendsInPlace != 12 || st.ReservedReleased != 0 {
			t.Errorf("placement counters %+v; want 2 reservations, 2 extensions elsewhere, 12 in place, none released", st)
		}
	})
}

// TestReservationLeaksNothing: a reserved page is allocated in memory alone.
// A reservation no growth used for a pass is free again after that pass, and
// a shutdown with a stream half written gives its reservation back before it
// saves the map, so the clean mount's map is the one the name table rebuilds.
func TestReservationLeaksNothing(t *testing.T) {
	const written = 2 * rewriteChunk
	const left = (rewriteSize - written) / disk.SectorSize
	t.Run("idle", func(t *testing.T) {
		v, _, _ := newTestVolume(t)
		f := rewrite(t, v, "l/idle", 1)
		data := payload(rewriteSize, 2)
		for off := 0; off < written; off += rewriteChunk {
			streamChunk(t, f, data, off)
		}
		// The pass that commits the stream's growth keeps the rest.
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		if st := v.Stats().Alloc; st.Reserved != 1 || st.ReservedReleased != 0 {
			t.Fatalf("after the pass that used it: %+v; want 1 reservation, none released", st)
		}
		// The next pass finds it idle.
		if _, err := v.Create("l/other", payload(700, 3)); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		if st := v.Stats().Alloc; st.ReservedReleased != left {
			t.Fatalf("after an idle pass: %+v; want %d pages released", st, left)
		}
		wantMapIsRebuild(t, v)
		// The stream goes on where alloc.Extend puts it.
		for off := written; off < rewriteSize; off += rewriteChunk {
			streamChunk(t, f, data, off)
		}
		wantReadBack(t, v, "l/idle", data)
	})
	t.Run("shutdown", func(t *testing.T) {
		v, d, _ := newTestVolume(t)
		f := rewrite(t, v, "l/half", 1)
		data := payload(rewriteSize, 2)
		for off := 0; off < written; off += rewriteChunk {
			streamChunk(t, f, data, off)
		}
		if err := v.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if st := v.Stats().Alloc; st.Reserved != 1 || st.ReservedReleased != left {
			t.Fatalf("after the shutdown: %+v; want 1 reservation and %d pages released", st, left)
		}
		v2, rep, err := Mount(d, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.CleanShutdown || rep.VAMReconstructed {
			t.Fatalf("mount report %+v; want a clean mount that loads the saved map", rep)
		}
		wantMapIsRebuild(t, v2)
		wantReadBack(t, v2, "l/half", data[:written])
	})
}

// TestReservationCrash: a crash mid-stream, with a reservation out, needs
// nothing of it: the mount rebuilds the map from the name table, which never
// named a reserved page, Verify is clean, and the forced part of the stream
// reads back.
func TestReservationCrash(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		v, d, _ := newTestVolumeWith(t, cfg)
		f := rewrite(t, v, "c/mid", 1)
		data := payload(rewriteSize, 2)
		for off := 0; off < 3*rewriteChunk; off += rewriteChunk {
			streamChunk(t, f, data, off)
			if off == rewriteChunk {
				if err := v.Force(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := v.Stats().Alloc; st.Reserved != 1 || st.ReservedReleased != 0 {
			t.Fatalf("before the crash: %+v; want one reservation out", st)
		}
		v2, err := remount(v, d, cfg) // verifies
		if err != nil {
			t.Fatal(err)
		}
		wantMapIsRebuild(t, v2)
		wantReadBack(t, v2, "c/mid", data[:2*rewriteChunk])
	})
}

// TestRawPathReservesNothing: a volume with no data cache writes a stream's
// chunks at once, and a rewritten file's growth takes no reservation.
func TestRawPathReservesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.DataCachePages = -1
	v, _, _ := newTestVolumeWith(t, cfg)
	f := rewrite(t, v, "w/raw", 1)
	data := payload(rewriteSize, 2)
	for off := 0; off < rewriteSize; off += rewriteChunk {
		streamChunk(t, f, data, off)
	}
	if st := v.Stats().Alloc; st.Reserved != 0 || st.ReservedReleased != 0 {
		t.Fatalf("raw path: %+v; want no reservation", st)
	}
	wantReadBack(t, v, "w/raw", data)
}

// TestSmallRewriteReservesNothing: a rewritten file that stays small with
// its predecessor's size takes no reservation, which would put it in the
// big-file area: it grows among the small files, by Extend's rule.
func TestSmallRewriteReservesNothing(t *testing.T) {
	v, _, _ := newTestVolume(t)
	if _, err := v.Create("s/small", payload(1500, 1)); err != nil {
		t.Fatal(err)
	}
	f, err := v.Create("s/small", nil)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(1500, 2)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats().Alloc; st.Reserved != 0 {
		t.Fatalf("small rewrite: %+v; want no reservation", st)
	}
	for _, r := range f.Entry().Runs {
		if int(r.Start+r.Len) > v.lay.boundary {
			t.Fatalf("small rewrite has runs %v; want them all below the boundary at %d", f.Entry().Runs, v.lay.boundary)
		}
	}
	wantReadBack(t, v, "s/small", data)
}

// TestReservationsUnderConcurrency: four handles stream rewrites at once
// while another goroutine forces, so reservations are taken, handed out and
// released under one another. Every file reads back whole, Verify is clean,
// and the map a shutdown saves is the name table's rebuild.
func TestReservationsUnderConcurrency(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		v, d, _ := newTestVolumeWith(t, cfg)
		const n = 4
		var fs [n]*File
		var data [n][]byte
		for i := range fs {
			fs[i] = rewrite(t, v, fmt.Sprintf("cc/%d", i), byte(i))
			data[i] = payload(rewriteSize, byte(20+i))
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		forcer := make(chan struct{})
		go func() {
			defer close(forcer)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := v.Force(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := range fs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for off := 0; off < rewriteSize; off += rewriteChunk {
					if _, err := fs[i].WriteAt(data[i][off:min(off+rewriteChunk, rewriteSize)], int64(off)); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(stop)
		<-forcer
		if t.Failed() {
			return
		}
		for i := range fs {
			wantReadBack(t, v, fmt.Sprintf("cc/%d", i), data[i])
		}
		if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
			t.Fatalf("verify: %v %v", err, vs.Problems)
		}
		if err := v.Shutdown(); err != nil {
			t.Fatal(err)
		}
		v2, _, err := Mount(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantMapIsRebuild(t, v2)
	})
}
