package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
)

// asyncConfig is testConfig with the asynchronous metadata pipeline and the
// adaptive commit controller on.
func asyncConfig() Config {
	cfg := testConfig()
	cfg.AsyncApply = true
	cfg.AdaptiveCommit = true
	return cfg
}

// TestAsyncBasicOps runs the whole operation surface on an async volume and
// checks that results are indistinguishable from the synchronous path,
// including across a clean shutdown and remount.
func TestAsyncBasicOps(t *testing.T) {
	v, d, _ := newTestVolumeCfg(t, asyncConfig())

	data := payload(1200, 7)
	if _, err := v.Create("proj/src/main.mesa", data); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Read-your-writes: the entry must be visible immediately.
	f, err := v.Open("proj/src/main.mesa", 0)
	if err != nil {
		t.Fatalf("open after create: %v", err)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
	if err := v.Touch("proj/src/main.mesa", 0); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if err := v.SetKeep("proj/src/main.mesa", 2); err != nil {
		t.Fatalf("setkeep: %v", err)
	}
	e, err := v.Stat("proj/src/main.mesa", 0)
	if err != nil || e.Keep != 2 {
		t.Fatalf("stat after setkeep: %+v, %v", e, err)
	}

	// Versions + keep: creating 4 versions with keep=2 leaves the last 2.
	for i := 0; i < 3; i++ {
		if _, err := v.Create("proj/src/main.mesa", payload(600+i, byte(i))); err != nil {
			t.Fatalf("create v%d: %v", i+2, err)
		}
	}
	n := 0
	if err := v.List("proj/src/main.mesa", func(Entry) bool { n++; return true }); err != nil {
		t.Fatalf("list: %v", err)
	}
	if n != 2 {
		t.Fatalf("keep=2 left %d versions, want 2", n)
	}

	// Extend/Write/Contract/SetByteSize on a handle.
	f2, err := v.Create("proj/big", payload(512, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Extend(4); err != nil {
		t.Fatalf("extend: %v", err)
	}
	grown := payload(4*disk.SectorSize, 9)
	if err := f2.WritePages(1, grown); err != nil {
		t.Fatalf("write new pages: %v", err)
	}
	if err := f2.SetByteSize(uint64(5 * disk.SectorSize)); err != nil {
		t.Fatalf("setbytesize: %v", err)
	}
	if err := f2.Contract(2); err != nil {
		t.Fatalf("contract: %v", err)
	}
	if f2.Pages() != 2 {
		t.Fatalf("pages after contract = %d, want 2", f2.Pages())
	}

	// Rename, delete.
	if err := v.Rename("proj/big", "proj/bigger"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := v.Stat("proj/big", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat old name after rename: %v", err)
	}
	if _, err := v.Stat("proj/bigger", 0); err != nil {
		t.Fatalf("stat new name after rename: %v", err)
	}
	if err := v.Delete("proj/bigger", 0); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := v.Stat("proj/bigger", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat after delete: %v", err)
	}

	if st, err := v.Verify(); err != nil || len(st.Problems) != 0 {
		t.Fatalf("verify: %v problems=%v", err, st.Problems)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Everything acked must be there after a clean remount.
	v2, ms, err := Mount(d, asyncConfig())
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if !ms.CleanShutdown {
		t.Fatal("shutdown was not clean")
	}
	e, err = v2.Stat("proj/src/main.mesa", 0)
	if err != nil || e.Version != 4 {
		t.Fatalf("newest version after remount: %+v, %v", e, err)
	}
	if _, err := v2.Stat("proj/bigger", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file resurrected: %v", err)
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncReadYourWrites is the -race hammer: concurrent writers and
// readers on an async volume, every mutation followed by an immediate read
// that must observe it through (or past) the intent queue.
func TestAsyncReadYourWrites(t *testing.T) {
	v, _, _ := newTestVolumeCfg(t, asyncConfig())

	const shared = 12
	for i := 0; i < shared; i++ {
		if _, err := v.CreateCached(fmt.Sprintf("shared/f%03d", i), payload(256, byte(i))); err != nil {
			t.Fatalf("populate: %v", err)
		}
	}

	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("w%d/f%03d", w, i%10)
				data := payload(300+i, byte(w*16+i))
				if _, err := v.Create(name, data); err != nil {
					errs <- fmt.Errorf("w%d create: %w", w, err)
					return
				}
				// The create must be visible to this (and any) reader now.
				f, err := v.Open(name, 0)
				if err != nil {
					errs <- fmt.Errorf("w%d open-after-create %s: %w", w, name, err)
					return
				}
				got, err := f.ReadAll()
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("w%d read-your-write %s: %v", w, name, err)
					return
				}
				switch i % 5 {
				case 0: // delete, must be gone immediately
					if err := v.Delete(name, 0); err != nil {
						errs <- fmt.Errorf("w%d delete: %w", w, err)
						return
					}
					if _, err := v.Stat(name, 0); !errors.Is(err, ErrNotFound) {
						errs <- fmt.Errorf("w%d stat-after-delete %s: %v", w, name, err)
						return
					}
				case 1: // rename, both sides must flip immediately
					to := fmt.Sprintf("w%d/r%03d-%d", w, i%10, i)
					if err := v.Rename(name, to); err != nil {
						errs <- fmt.Errorf("w%d rename: %w", w, err)
						return
					}
					if _, err := v.Stat(to, 0); err != nil {
						errs <- fmt.Errorf("w%d stat-after-rename %s: %w", w, to, err)
						return
					}
					if err := v.Delete(to, 0); err != nil {
						errs <- fmt.Errorf("w%d delete renamed: %w", w, err)
						return
					}
				case 2: // hot-spot touch on a shared cached file
					k := (w*31 + i*7) % shared
					sn := fmt.Sprintf("shared/f%03d", k)
					if err := v.Touch(sn, 0); err != nil {
						errs <- fmt.Errorf("w%d touch shared: %w", w, err)
						return
					}
					if _, err := v.Open(sn, 0); err != nil {
						errs <- fmt.Errorf("w%d open shared: %w", w, err)
						return
					}
				case 3: // list own namespace; must include the new file
					seen := false
					if err := v.List(fmt.Sprintf("w%d/", w), func(e Entry) bool {
						if e.Name == name {
							seen = true
						}
						return true
					}); err != nil {
						errs <- fmt.Errorf("w%d list: %w", w, err)
						return
					}
					if !seen {
						errs <- fmt.Errorf("w%d list missed fresh %s", w, name)
						return
					}
				case 4: // group-commit-aware fsync
					if err := v.WaitCommitted(v.CommitSeq()); err != nil {
						errs <- fmt.Errorf("w%d waitcommitted: %w", w, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := v.DrainIntents(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := v.Stats()
	if !st.Intent.Enabled {
		t.Fatal("Intent.Enabled = false on async volume")
	}
	if st.Intent.Enqueued == 0 || st.Intent.Applied != st.Intent.Enqueued {
		t.Fatalf("intent seqs: enqueued=%d applied=%d", st.Intent.Enqueued, st.Intent.Applied)
	}
	if st.Intent.Depth != 0 {
		t.Fatalf("depth after drain = %d", st.Intent.Depth)
	}
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("verify after hammer: %v problems=%v", err, vs.Problems)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncDeepQueueCrash freezes the applier, piles up a deep unapplied
// queue, and crashes: acknowledged (WaitCommitted) state must survive, none
// of the frozen intents may be half-applied, and the volume must verify
// clean after recovery.
func TestAsyncDeepQueueCrash(t *testing.T) {
	v, d, _ := newTestVolumeCfg(t, asyncConfig())

	// Acked population: durable by contract.
	ackedData := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("acked/f%03d", i)
		ackedData[name] = payload(400+i, byte(i))
		if _, err := v.Create(name, ackedData[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.WaitCommitted(v.CommitSeq()); err != nil {
		t.Fatal(err)
	}

	// Freeze the applier and build a deep unapplied queue: creates of new
	// names and deletes of acked files, none of them acked.
	v.q.Suspend()
	for i := 0; i < 40; i++ {
		if _, err := v.Create(fmt.Sprintf("frozen/f%03d", i), payload(128, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := v.Delete(fmt.Sprintf("acked/f%03d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if depth := v.IntentDepth(); depth < 44 {
		t.Fatalf("queue depth = %d, want >= 44", depth)
	}

	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, asyncConfig())
	if err != nil {
		t.Fatalf("mount after crash: %v", err)
	}
	// Every acked file must exist with its exact content — including the
	// four whose deletes were enqueued but never acked (mayExist would
	// also be acceptable for those had the applier been running; with the
	// queue frozen their deletes never staged, so they must survive).
	for name, want := range ackedData {
		f, err := v2.Open(name, 0)
		if err != nil {
			t.Fatalf("acked %s lost after crash: %v", name, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acked %s content after crash: %v", name, err)
		}
	}
	// The frozen creates never applied, never staged: atomically absent.
	for i := 0; i < 40; i++ {
		if _, err := v2.Stat(fmt.Sprintf("frozen/f%03d", i), 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("frozen create f%03d leaked past crash: %v", i, err)
		}
	}
	if st, err := v2.Verify(); err != nil || len(st.Problems) != 0 {
		t.Fatalf("verify after crash recovery: %v problems=%v", err, st.Problems)
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncWaitCommittedDurable crashes immediately after a WaitCommitted
// ack with the applier running normally: the acked create must survive.
func TestAsyncWaitCommittedDurable(t *testing.T) {
	v, d, _ := newTestVolumeCfg(t, asyncConfig())
	data := payload(900, 5)
	if _, err := v.Create("must/survive", data); err != nil {
		t.Fatal(err)
	}
	if err := v.WaitCommitted(v.CommitSeq()); err != nil {
		t.Fatal(err)
	}
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := v2.Open("must/survive", 0)
	if err != nil {
		t.Fatalf("acked create lost: %v", err)
	}
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("acked content: %v", err)
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncStatsExposure checks the new Stats surface: intent queue gauges
// and the adaptive force deadline.
func TestAsyncStatsExposure(t *testing.T) {
	v, _, _ := newTestVolumeCfg(t, asyncConfig())
	st := v.Stats()
	if !st.Commit.Adaptive {
		t.Fatal("Commit.Adaptive = false with AdaptiveCommit set")
	}
	// Format-time staging already trained the controller; the deadline
	// must be inside [floor, ceiling].
	if d := st.Commit.ForceDeadline; d < wal.Floor || d > 500*time.Millisecond {
		t.Fatalf("ForceDeadline = %v, want within [%v, 500ms]", d, wal.Floor)
	}
	for i := 0; i < 20; i++ {
		if _, err := v.Create(fmt.Sprintf("s/f%02d", i), payload(64, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DrainIntents(); err != nil {
		t.Fatal(err)
	}
	st = v.Stats()
	if st.Intent.Enqueued < 20 || st.Intent.Applied != st.Intent.Enqueued {
		t.Fatalf("intent counters: %+v", st.Intent)
	}
	if st.Intent.MaxDepth < 1 {
		t.Fatalf("MaxDepth = %d, want >= 1", st.Intent.MaxDepth)
	}
	if st.Intent.ApplyLag.Count < 20 {
		t.Fatalf("ApplyLag.Count = %d, want >= 20", st.Intent.ApplyLag.Count)
	}
	if st.Intent.ApplierBusy <= 0 {
		t.Fatalf("ApplierBusy = %v, want > 0", st.Intent.ApplierBusy)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// After shutdown the queue is closed; mutations fail cleanly.
	if _, err := v.Create("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: %v", err)
	}
}

// TestSyncVolumeUnaffected pins that a volume without AsyncApply has a nil
// queue and zero-valued IntentStats.
func TestSyncVolumeUnaffected(t *testing.T) {
	v, _, _ := newTestVolumeCfg(t, testConfig())
	if v.async() {
		t.Fatal("sync volume has an intent queue")
	}
	if _, err := v.Create("a/b", payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Intent.Enabled || st.Intent.Enqueued != 0 {
		t.Fatalf("sync volume IntentStats = %+v", st.Intent)
	}
	if st.Commit.Adaptive {
		t.Fatal("sync volume reports adaptive commit")
	}
	if st.Commit.ForceDeadline != 500*time.Millisecond {
		t.Fatalf("fixed ForceDeadline = %v", st.Commit.ForceDeadline)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
