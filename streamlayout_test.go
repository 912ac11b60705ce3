package cedarfs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	cedarfs "repro"
	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/sim"
)

// streamVolume formats a volume big enough for a 16 MB file plus company and
// returns it behind LocalFS. Both paths a mutation can take are tested: the
// staged one and the asynchronous pipeline.
func streamVolume(t *testing.T, async bool) (*cedarfs.Volume, cedarfs.FS) {
	t.Helper()
	geom := disk.SmallGeometry
	geom.Cylinders = 160 // 59 MB
	d, err := disk.New(geom, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	vol, err := cedarfs.Format(d, cedarfs.Config{NTPages: 256, AsyncApply: async})
	if err != nil {
		t.Fatal(err)
	}
	fs := cedarfs.NewLocalFS(vol)
	t.Cleanup(func() {
		fs.Close()
		if err := vol.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return vol, fs
}

func bothPaths(t *testing.T, test func(t *testing.T, vol *cedarfs.Volume, fs cedarfs.FS)) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			vol, fs := streamVolume(t, async)
			test(t, vol, fs)
		})
	}
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

const chunk32K = 32 << 10

// streamStep writes the next chunk of data, from byte off on, through h.
func streamStep(t *testing.T, h cedarfs.Handle, data []byte, off, chunk int) error {
	t.Helper()
	_, _, err := h.WriteAt(context.Background(), data[off:min(off+chunk, len(data))], int64(off))
	return err
}

// runsOf returns the run table of the newest version of name.
func runsOf(t *testing.T, vol *cedarfs.Volume, name string) []alloc.Run {
	t.Helper()
	e, err := vol.Stat(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e.Runs
}

// wantContents reads name back whole and compares.
func wantContents(t *testing.T, vol *cedarfs.Volume, name string, want []byte) {
	t.Helper()
	f, err := vol.Open(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s read back differs from what was streamed (%v)", name, err)
	}
}

// TestStreamedFileIsOneAscendingRun: a file written the wire's way —
// Create(nil), then 32 KB WriteAts past its end — is its leader's run and one
// data run, however many writes it took; two files streamed by turns take the
// pages behind each other, and each still ascends; and the pages a committed
// delete gave back are where the next stream starts.
func TestStreamedFileIsOneAscendingRun(t *testing.T) {
	bothPaths(t, func(t *testing.T, vol *cedarfs.Volume, fs cedarfs.FS) {
		ctx := context.Background()
		one := randomBytes(10*chunk32K+700, 1)
		h, err := fs.Create(ctx, "one", nil)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(one); off += chunk32K {
			if err := streamStep(t, h, one, off, chunk32K); err != nil {
				t.Fatal(err)
			}
		}
		pages := uint32((len(one) + disk.SectorSize - 1) / disk.SectorSize)
		runs := runsOf(t, vol, "one")
		if len(runs) != 2 || runs[0].Len != 1 || runs[1].Len != pages {
			t.Fatalf("streamed file has runs %v; want its leader's and one of %d pages", runs, pages)
		}
		wantContents(t, vol, "one", one)

		data := [2][]byte{randomBytes(6*chunk32K, 2), randomBytes(6*chunk32K, 3)}
		var hs [2]cedarfs.Handle
		for i := range hs {
			if hs[i], err = fs.Create(ctx, fmt.Sprintf("turns%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		for off := 0; off < len(data[0]); off += chunk32K {
			for i := range hs {
				if err := streamStep(t, hs[i], data[i], off, chunk32K); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range hs {
			name := fmt.Sprintf("turns%d", i)
			runs := runsOf(t, vol, name)
			for k := 2; k < len(runs); k++ {
				if runs[k].Start <= runs[k-1].Start {
					t.Errorf("%s: run %d at %d is not above run %d at %d", name, k, runs[k].Start, k-1, runs[k-1].Start)
				}
			}
			wantContents(t, vol, name, data[i])
		}
		st := vol.Stats().Alloc
		if st.ExtendsInPlace < 9 || st.ExtendsElsewhere < 3 {
			t.Errorf("placement counters %+v; want the lone stream's growth in place and the turn-takers' mostly not", st)
		}

		// The first stream's pages, once its delete has committed, are the
		// lowest free stretch of the big-file area again.
		if err := fs.Delete(ctx, "one", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Force(ctx); err != nil {
			t.Fatal(err)
		}
		if h, err = fs.Create(ctx, "again", nil); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(one); off += chunk32K {
			if err := streamStep(t, h, one, off, chunk32K); err != nil {
				t.Fatal(err)
			}
		}
		if again := runsOf(t, vol, "again"); len(again) != 2 || again[1] != runs[1] {
			t.Errorf("a stream after the delete has runs %v; want the deleted file's data run %v reused", again, runs[1])
		}
		wantContents(t, vol, "again", one)
	})
}

// TestLongStreamKeepsTwoRuns: 16 MB in 32 KB writes — 512 extensions, which
// as one run each would have overflowed the file's name-table entry at the
// 77th — is still a table of two runs, and reads back intact.
func TestLongStreamKeepsTwoRuns(t *testing.T) {
	bothPaths(t, func(t *testing.T, vol *cedarfs.Volume, fs cedarfs.FS) {
		data := randomBytes(16<<20, 4)
		h, err := fs.Create(context.Background(), "long", nil)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += chunk32K {
			if err := streamStep(t, h, data, off, chunk32K); err != nil {
				t.Fatalf("write at %d: %v", off, err)
			}
		}
		if _, err := fs.Force(context.Background()); err != nil {
			t.Fatal(err)
		}
		if runs := runsOf(t, vol, "long"); len(runs) != 2 || runs[1].Len != 16<<20/disk.SectorSize {
			t.Fatalf("16 MB stream has runs %v; want its leader's and one data run", runs)
		}
		wantContents(t, vol, "long", data)
		if vol.Health() != cedarfs.HealthHealthy {
			t.Fatalf("volume is %v after the stream", vol.Health())
		}
	})
}

// TestRunTableLimitFailsOneWriter: two files grown a page at a time by turns
// get a run per write, until one's entry would no longer fit a name-table
// cell. That write fails, with btree.ErrTooLarge, to its caller — on the
// asynchronous path too, where the same Put refused in the applier used to
// take the volume read-only — and nothing else notices: the other writer
// goes on, both files keep what was written, and Verify finds no page
// leaked or owned twice.
func TestRunTableLimitFailsOneWriter(t *testing.T) {
	bothPaths(t, func(t *testing.T, vol *cedarfs.Volume, fs cedarfs.FS) {
		ctx := context.Background()
		const page = disk.SectorSize
		data := [2][]byte{randomBytes(200*page, 5), randomBytes(200*page, 6)}
		// The longer name leaves its entry less room for runs: it fails first.
		names := [2]string{"limit/a-name-that-is-rather-long", "limit/b"}
		var hs [2]cedarfs.Handle
		for i := range hs {
			var err error
			if hs[i], err = fs.Create(ctx, names[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		written := [2]int{}
		var failed error
		for off := 0; failed == nil && off < len(data[0]); off += page {
			for i := range hs {
				if err := streamStep(t, hs[i], data[i], off, page); err != nil {
					if i != 0 {
						t.Fatalf("%s failed first, at %d: %v", names[i], off, err)
					}
					failed = err
					continue
				}
				written[i] = off + page
			}
		}
		if !errors.Is(failed, btree.ErrTooLarge) {
			t.Fatalf("writes by turns ended with %v, want btree.ErrTooLarge", failed)
		}
		if n := len(runsOf(t, vol, names[0])); n < 60 {
			t.Fatalf("%s failed at %d runs; the turns were meant to fragment it to the cell limit", names[0], n)
		}
		// The other writer is not affected, and the refused one can still
		// write what it has room for.
		if err := streamStep(t, hs[1], data[1], written[1], page); err != nil {
			t.Fatalf("%s after the other's failure: %v", names[1], err)
		}
		written[1] += page
		if _, _, err := hs[0].WriteAt(ctx, data[0][:page], 0); err != nil {
			t.Fatalf("in-place write on the refused handle: %v", err)
		}
		if _, err := fs.Force(ctx); err != nil {
			t.Fatalf("Force after the refusal: %v", err)
		}
		if vol.Health() != cedarfs.HealthHealthy {
			t.Fatalf("volume is %v after one writer hit the limit", vol.Health())
		}
		for i := range hs {
			wantContents(t, vol, names[i], data[i][:written[i]])
		}
		vs, err := vol.Verify()
		if err != nil || len(vs.Problems) != 0 {
			t.Fatalf("Verify: %v %v", err, vs.Problems)
		}
	})
}
