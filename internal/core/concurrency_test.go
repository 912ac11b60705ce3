package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// newTestVolumeCfg is newTestVolume with a config override.
func newTestVolumeCfg(t *testing.T, cfg Config) (*Volume, *disk.Disk, *sim.VirtualClock) {
	t.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return v, d, clk
}

// TestConcurrentMixedOps runs the full operation mix — opens, reads, stats,
// lists, creates, writes, deletes, touches, forces, commit waits — from
// many goroutines, and then audits the volume. Under
// `go test -race ./internal/core` this is the main proof that the split
// monitor (shared read path, per-handle locks, leaderSet.mu/vmMu side
// locks) has no data races.
func TestConcurrentMixedOps(t *testing.T) {
	t.Run("SplitMonitor", func(t *testing.T) {
		v, _, _ := newTestVolumeCfg(t, testConfig())

		// Shared read-mostly population.
		const shared = 24
		sharedData := make([][]byte, shared)
		for i := 0; i < shared; i++ {
			sharedData[i] = payload(300+7*i, byte(i))
			if _, err := v.Create(fmt.Sprintf("shared/f%03d", i), sharedData[i]); err != nil {
				t.Fatalf("populate: %v", err)
			}
		}

		const workers = 8
		const iters = 60
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k := (w*13 + i) % shared
					switch i % 6 {
					case 0: // open + read a shared file
						f, err := v.Open(fmt.Sprintf("shared/f%03d", k), 0)
						if err != nil {
							errs <- fmt.Errorf("w%d open: %w", w, err)
							return
						}
						got, err := f.ReadAll()
						if err != nil || !bytes.Equal(got, sharedData[k]) {
							errs <- fmt.Errorf("w%d read shared/f%03d: %v", w, k, err)
							return
						}
					case 1: // stat + list
						if _, err := v.Stat(fmt.Sprintf("shared/f%03d", k), 0); err != nil {
							errs <- fmt.Errorf("w%d stat: %w", w, err)
							return
						}
						n := 0
						if err := v.List("shared/", func(Entry) bool { n++; return n < 10 }); err != nil {
							errs <- fmt.Errorf("w%d list: %w", w, err)
							return
						}
					case 2: // private create + readback
						name := fmt.Sprintf("priv/w%d-%03d", w, i)
						data := payload(128+i, byte(w*16+i))
						f, err := v.Create(name, data)
						if err != nil {
							errs <- fmt.Errorf("w%d create: %w", w, err)
							return
						}
						got, err := f.ReadAll()
						if err != nil || !bytes.Equal(got, data) {
							errs <- fmt.Errorf("w%d readback: %v", w, err)
							return
						}
					case 3: // overwrite a private page
						name := fmt.Sprintf("priv/w%d-%03d", w, i-1)
						if f, err := v.Open(name, 0); err == nil && f.Pages() > 0 {
							buf := payload(disk.SectorSize, byte(i))
							if err := f.WritePages(0, buf); err != nil {
								errs <- fmt.Errorf("w%d write: %w", w, err)
								return
							}
						}
					case 4: // delete an older private file
						name := fmt.Sprintf("priv/w%d-%03d", w, i-2)
						if _, err := v.Stat(name, 0); err == nil {
							if err := v.Delete(name, 0); err != nil {
								errs <- fmt.Errorf("w%d delete: %w", w, err)
								return
							}
						}
					case 5: // touch + commit wait
						if err := v.Touch(fmt.Sprintf("shared/f%03d", k), 0); err != nil {
							errs <- fmt.Errorf("w%d touch: %w", w, err)
							return
						}
						if err := v.WaitCommitted(v.CommitSeq()); err != nil {
							errs <- fmt.Errorf("w%d wait: %w", w, err)
							return
						}
					}
				}
				errs <- nil
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		st, err := v.Verify()
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if len(st.Problems) != 0 {
			t.Fatalf("Verify problems: %v", st.Problems)
		}
		ops := v.Stats().Ops
		if ops.Opens == 0 || ops.Creates == 0 || ops.Deletes == 0 || ops.Reads == 0 {
			t.Fatalf("op counters incomplete: %+v", ops)
		}
		if err := v.Shutdown(); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// TestWaitCommittedDurability is the pipelined commit's fsync contract:
// after WaitCommitted(CommitSeq()) returns, a crash must not lose the
// staged metadata, even though the create itself never forced the log.
func TestWaitCommittedDurability(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := payload(900, 3)
	if _, err := v.Create("durable/one", data); err != nil {
		t.Fatalf("Create: %v", err)
	}
	seq := v.CommitSeq()
	if committed := v.Log().Committed(); committed >= seq {
		t.Fatalf("create already durable (committed %d >= seq %d): nothing pipelined", committed, seq)
	}
	if err := v.WaitCommitted(seq); err != nil {
		t.Fatalf("WaitCommitted: %v", err)
	}
	if committed := v.Log().Committed(); committed < seq {
		t.Fatalf("WaitCommitted returned at committed %d < seq %d", committed, seq)
	}
	// Idempotent on an already-durable sequence.
	if err := v.WaitCommitted(seq); err != nil {
		t.Fatalf("second WaitCommitted: %v", err)
	}
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	f, err := v2.Open("durable/one", 0)
	if err != nil {
		t.Fatalf("file lost after crash despite WaitCommitted: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content lost after crash: %v", err)
	}
}

// TestParallelMountEquivalence crashes a populated volume, clones the dead
// disk, and recovers one copy sequentially and one with an 8-way mount.
// The two recovered volumes must be indistinguishable — same entries, same
// contents, clean Verify — while the parallel mount's VAM scan finishes
// sooner on the virtual clock (same leaf reads, decode CPU divided).
func TestParallelMountEquivalence(t *testing.T) {
	v, d, _ := newTestVolume(t)
	var names []string
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("dir%d/file%03d", i%7, i)
		if _, err := v.Create(name, payload(200+13*i, byte(i))); err != nil {
			t.Fatalf("Create: %v", err)
		}
		names = append(names, name)
	}
	for i := 0; i < 30; i += 3 {
		if err := v.Delete(names[i], 0); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatalf("Force: %v", err)
	}
	v.Crash()
	d.Revive()

	img := filepath.Join(t.TempDir(), "crashed.img")
	if err := d.SaveImage(img); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	clk8 := sim.NewVirtualClock()
	d8, err := disk.LoadImage(img, disk.DefaultParams, clk8)
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}

	seqCfg := testConfig()
	v1, ms1, err := Mount(d, seqCfg)
	if err != nil {
		t.Fatalf("sequential Mount: %v", err)
	}
	parCfg := testConfig()
	parCfg.MountWorkers = 8
	v8, ms8, err := Mount(d8, parCfg)
	if err != nil {
		t.Fatalf("parallel Mount: %v", err)
	}
	if !ms1.VAMReconstructed || !ms8.VAMReconstructed {
		t.Fatalf("expected VAM reconstruction on both mounts: %+v %+v", ms1, ms8)
	}
	if ms8.VAMElapsed >= ms1.VAMElapsed {
		t.Fatalf("parallel VAM scan not faster: %v (8 workers) vs %v (sequential)", ms8.VAMElapsed, ms1.VAMElapsed)
	}

	collect := func(v *Volume) map[string]Entry {
		m := make(map[string]Entry)
		if err := v.List("", func(e Entry) bool {
			m[fmt.Sprintf("%s!%d", e.Name, e.Version)] = e
			return true
		}); err != nil {
			t.Fatalf("List: %v", err)
		}
		return m
	}
	e1, e8 := collect(v1), collect(v8)
	if len(e1) == 0 || len(e1) != len(e8) {
		t.Fatalf("entry sets differ: %d vs %d", len(e1), len(e8))
	}
	for k, a := range e1 {
		b, ok := e8[k]
		if !ok {
			t.Fatalf("entry %s missing from parallel mount", k)
		}
		if a.UID != b.UID || a.ByteSize != b.ByteSize || len(a.Runs) != len(b.Runs) {
			t.Fatalf("entry %s differs: %+v vs %+v", k, a, b)
		}
		f1, err1 := v1.Open(a.Name, a.Version)
		f8, err8 := v8.Open(b.Name, b.Version)
		if err1 != nil || err8 != nil {
			t.Fatalf("open %s: %v / %v", k, err1, err8)
		}
		c1, err1 := f1.ReadAll()
		c8, err8 := f8.ReadAll()
		if err1 != nil || err8 != nil || !bytes.Equal(c1, c8) {
			t.Fatalf("content of %s differs after recovery: %v / %v", k, err1, err8)
		}
	}
	for _, vv := range []*Volume{v1, v8} {
		st, err := vv.Verify()
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if len(st.Problems) != 0 {
			t.Fatalf("Verify problems: %v", st.Problems)
		}
	}
}
