package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/allocgate"
	"repro/internal/disk"
	"repro/internal/intentq"
	"repro/internal/wal"
)

// The tests here pin what the WAL group buys: a force that arrives in the
// middle of an operation — and the power failing right after it — leaves the
// operation wholly present or wholly absent, on a staged volume and on an
// asynchronous one. The force is launched by log.OnAppend at a chosen Append,
// from another goroutine: a force on the hook's own goroutine would wait for
// the group that goroutine holds, for ever, which is the design (wal.Begin).

// cut arms the volume: at the n-th Append from now the log is forced aside and
// the plug pulled when that force returns. applied reports, at that Append,
// how many of the test's operations had completed. done is closed when the
// plug is out.
type cut struct {
	done    chan struct{}
	applied atomic.Int64
}

func armCut(v *Volume, d *disk.Disk, n int, completed func() int64) *cut {
	c := &cut{done: make(chan struct{})}
	c.applied.Store(-1)
	var count atomic.Int64
	prev := v.log.OnAppend
	v.log.OnAppend = func(images int, seq uint64) {
		prev(images, seq)
		if count.Add(1) != int64(n) {
			return
		}
		c.applied.Store(completed())
		go func() {
			_ = v.log.Force() // fails only once the device is gone
			d.Halt()
			close(c.done)
		}()
		// Let the force run as far as it can before the operation goes on.
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
	}
	return c
}

// forceAside starts a force of the log on another goroutine and yields until
// it has had every chance to run: with a group open it is parked on the
// bracket by now.
func forceAside(l *wal.Log) <-chan error {
	done := make(chan error, 1)
	go func() { done <- l.Force() }()
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	return done
}

// remount pulls the plug (if the cut has not), revives the device, mounts and
// verifies; a volume that does not mount, or does not verify, is an error.
func remount(v *Volume, d *disk.Disk, cfg Config) (*Volume, error) {
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	vs, err := v2.Verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if len(vs.Problems) != 0 {
		return nil, fmt.Errorf("verify: %v", vs.Problems)
	}
	return v2, nil
}

// versions lists the versions of name in the name table.
func versions(t *testing.T, v *Volume, name string) []uint32 {
	t.Helper()
	var out []uint32
	err := v.List(name, func(e Entry) bool {
		if e.Name == name {
			out = append(out, e.Version)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bothModes(t *testing.T, fn func(t *testing.T, cfg Config)) {
	t.Run("staged", func(t *testing.T) { fn(t, testConfig()) })
	t.Run("async", func(t *testing.T) {
		cfg := testConfig()
		cfg.AsyncApply = true
		fn(t, cfg)
	})
}

// cutOp formats a volume, runs setup and forces it, arms the cut at the n-th
// Append, runs op (whose error is ignored: it may meet the pulled plug) and
// returns the remounted volume, or nil when op made fewer than n Appends.
func cutOp(t *testing.T, cfg Config, n int, setup, op func(v *Volume) error) *Volume {
	t.Helper()
	v, d, _ := newTestVolumeWith(t, cfg)
	if err := setup(v); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	c := armCut(v, d, n, func() int64 { return 0 })
	_ = op(v)
	_ = v.DrainIntents()
	if c.applied.Load() < 0 {
		v.Crash()
		return nil
	}
	<-c.done
	v2, err := remount(v, d, cfg)
	if err != nil {
		t.Fatalf("cut at append %d: %v", n, err)
	}
	return v2
}

func TestCutRenameIsAtomic(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		for n := 1; n <= 6; n++ {
			v := cutOp(t, cfg, n, func(v *Volume) error {
				for i := 0; i < 2; i++ {
					if _, err := v.Create("dir/a", payload(700, byte(i))); err != nil {
						return err
					}
				}
				return nil
			}, func(v *Volume) error { return v.Rename("dir/a", "dir/b") })
			if v == nil {
				break
			}
			a, b := versions(t, v, "dir/a"), versions(t, v, "dir/b")
			if !(len(a) == 2 && len(b) == 0) && !(len(a) == 0 && len(b) == 2) {
				t.Fatalf("cut at append %d: rename left dir/a %v and dir/b %v", n, a, b)
			}
		}
	})
}

func TestCutCreateUnderKeepIsAtomic(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		for n := 1; n <= 4; n++ {
			v := cutOp(t, cfg, n, func(v *Volume) error {
				if _, err := v.Create("k/f", payload(600, 1)); err != nil {
					return err
				}
				if err := v.SetKeep("k/f", 2); err != nil {
					return err
				}
				_, err := v.Create("k/f", payload(600, 2))
				return err
			}, func(v *Volume) error {
				_, err := v.Create("k/f", payload(600, 3))
				return err
			})
			if v == nil {
				break
			}
			got := fmt.Sprint(versions(t, v, "k/f"))
			if got != "[1 2]" && got != "[2 3]" {
				t.Fatalf("cut at append %d: create under keep=2 left versions %s", n, got)
			}
		}
	})
}

func TestCutEmptyCreateIsAtomic(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		for n := 1; n <= 3; n++ {
			v := cutOp(t, cfg, n, func(v *Volume) error {
				_, err := v.Create("e/before", payload(300, 9))
				return err
			}, func(v *Volume) error {
				_, err := v.Create("e/empty", nil)
				return err
			})
			if v == nil {
				break
			}
			// remount's Verify has checked the leader of whatever is there.
			if _, err := v.Stat("e/before", 0); err != nil {
				t.Fatalf("cut at append %d: earlier create lost: %v", n, err)
			}
			if f, err := v.Open("e/empty", 0); err == nil {
				if _, err := f.ReadAll(); err != nil {
					t.Fatalf("cut at append %d: empty file unreadable: %v", n, err)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut at append %d: %v", n, err)
			}
		}
	})
}

// TestCutSweepCreateRun cuts a run of 300 empty creates — two images each,
// entry and leader, and a B-tree split every couple of dozen — at every one
// of its first 400 Appends, staged and async. The survivors must be a prefix
// of the run that holds every create completed before the cut, the volume
// must mount, and Verify must be clean. (Before the group: 208 of the 400
// cuts were not — entries without their leader image, splits without their
// parent page.)
func TestCutSweepCreateRun(t *testing.T) {
	const creates = 300
	stride := 1
	if testing.Short() || allocgate.RaceEnabled {
		stride = 7 // the detector makes the full sweep half a minute
	}
	bothModes(t, func(t *testing.T, cfg Config) {
		bad := 0
		for n := 1; n <= 400; n += stride {
			v, d, _ := newTestVolumeWith(t, cfg)
			var issued atomic.Int64
			c := armCut(v, d, n, func() int64 {
				if v.q != nil {
					return int64(v.q.Applied())
				}
				return issued.Load()
			})
			for i := 0; i < creates; i++ {
				if _, err := v.Create(fmt.Sprintf("run/f%03d", i), nil); err != nil {
					break
				}
				issued.Add(1)
			}
			_ = v.DrainIntents()
			<-c.done
			v2, err := remount(v, d, cfg)
			if err != nil {
				t.Errorf("cut at append %d: %v", n, err)
				bad++
				continue
			}
			present, holes := 0, false
			for i := 0; i < creates; i++ {
				if _, err := v2.Stat(fmt.Sprintf("run/f%03d", i), 0); err == nil {
					holes = holes || i != present
					present++
				}
			}
			if before := int(c.applied.Load()); holes || present < before {
				t.Errorf("cut at append %d: %d creates survived (a prefix: %v), %d were complete before the cut",
					n, present, !holes, before)
				bad++
			}
			v2.Crash()
		}
		if bad != 0 {
			t.Fatalf("%d of the cuts are bad", bad)
		}
	})
}

// retryVolume builds an asynchronous volume whose rename of a/x to z/x has to
// read the old name's leaf from the platter in its second step — the cache is
// emptied with the intent already queued — and makes that read fail. backoff
// runs on the applier between a failed attempt and intentq's in-place retry.
// writeRetries is the volume's Config.WriteRetries, which also bounds those
// in-place retries. It returns with the applier suspended; the caller
// resumes it.
func retryVolume(t *testing.T, writeRetries int, backoff func(v *Volume, d *disk.Disk, attempt int)) (*Volume, *disk.Disk, Config) {
	t.Helper()
	cfg := testConfig()
	cfg.WriteRetries = writeRetries
	cfg.AsyncApply = true
	cfg.ReadRetries = -1 // a fault reaches the applier instead of clearing inside the cache
	v, d, _ := newTestVolumeWith(t, cfg)
	if _, err := v.Create("a/x", payload(300, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ { // enough names between a/ and z/ for several leaves
		if _, err := v.Create(fmt.Sprintf("m/f%03d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if v.nt.Height() < 2 {
		t.Fatal("name table is a single leaf; the rename's steps would share a page")
	}
	// The same queue, with a hook between the attempts.
	v.q.Close()
	qc := v.queueConfig()
	qc.Backoff = func(attempt int) { backoff(v, d, attempt) }
	v.q = intentq.New(v.clk, qc)
	v.q.Suspend()
	if err := v.Rename("a/x", "z/x"); err != nil {
		t.Fatal(err)
	}
	if err := v.log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v.cache.dropAll()
	var appends atomic.Int64
	prev := v.log.OnAppend
	v.log.OnAppend = func(images int, seq uint64) {
		prev(images, seq)
		if appends.Add(1) == 1 { // the first step has staged; fail what the second reads
			d.InjectFaults(disk.FaultConfig{Seed: 1, TransientRead: 1})
		}
	}
	return v, d, cfg
}

// TestGroupHeldAcrossApplierRetry: a transient read fault between the two
// steps of a rename sends the intent through intentq's in-place retry; a force
// that arrives between the attempts must not commit the first step alone.
func TestGroupHeldAcrossApplierRetry(t *testing.T) {
	var before, during uint64
	var forced <-chan error
	v, d, cfg := retryVolume(t, 0, func(v *Volume, d *disk.Disk, attempt int) {
		if attempt > 1 {
			return
		}
		forced, during = forceAside(v.log), v.log.Committed()
		d.ClearFaults()
	})
	before = v.log.Committed()
	v.q.Resume()
	if err := v.DrainIntents(); err != nil {
		t.Fatalf("rename did not survive a transient fault: %v", err)
	}
	if v.q.ApplyRetries() == 0 {
		t.Fatal("no retry happened: the fault missed the gap between the steps")
	}
	if during != before {
		t.Fatalf("a force committed seq %d between the attempts (was %d): the first step was exposed", during, before)
	}
	if err := <-forced; err != nil {
		t.Fatal(err)
	}
	v2, err := remount(v, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, z := versions(t, v2, "a/x"), versions(t, v2, "z/x"); len(a) != 0 || len(z) != 1 {
		t.Fatalf("retried rename left a/x %v and z/x %v", a, z)
	}
}

// TestFatalApplyAbortsGroup: the same fault, never cleared, exhausts the retry
// budget. The group ends early — by Abort: the volume goes read-only, the
// force waiting for the group is refused, and nothing of the half-applied
// rename is ever forced.
func TestFatalApplyAbortsGroup(t *testing.T) {
	var forced <-chan error
	v, d, cfg := retryVolume(t, 0, func(v *Volume, d *disk.Disk, attempt int) {
		if attempt == 1 {
			forced = forceAside(v.log)
		}
	})
	v.q.Resume()
	if err := v.DrainIntents(); err == nil {
		t.Fatal("drain succeeded with the name table unreadable")
	}
	waitHealth(t, v, HealthReadOnly)
	if err := <-forced; !errors.Is(err, wal.ErrAborted) {
		t.Fatalf("force that waited for the failed intent = %v, want wal.ErrAborted", err)
	}
	if err := v.log.Force(); !errors.Is(err, wal.ErrAborted) {
		t.Fatalf("force after the failure = %v, want wal.ErrAborted", err)
	}
	d.ClearFaults()
	v2, err := remount(v, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, z := versions(t, v2, "a/x"), versions(t, v2, "z/x"); len(a) != 1 || len(z) != 0 {
		t.Fatalf("failed rename left a/x %v and z/x %v", a, z)
	}
}

// TestNoRetriesMeansNone: with WriteRetries < 0 the applier re-applies no
// intent — the volume's retry count is the queue's, with no default of its
// own — so the fault that one retry would have survived is final: the rename
// fails and the volume goes read-only.
func TestNoRetriesMeansNone(t *testing.T) {
	v, _, _ := retryVolume(t, -1, func(v *Volume, d *disk.Disk, attempt int) {
		d.ClearFaults()
	})
	v.q.Resume()
	if err := v.DrainIntents(); err == nil {
		t.Fatal("rename survived the fault with retries disabled")
	}
	if got := v.q.ApplyRetries(); got != 0 {
		t.Fatalf("ApplyRetries = %d with WriteRetries -1, want 0", got)
	}
	waitHealth(t, v, HealthReadOnly)
}

// TestFailedDataWriteLeavesNoEntry: a create whose data write fails puts
// nothing in the name table and gives its pages back. (The entry used to go
// in first, over pages that were never written.)
func TestFailedDataWriteLeavesNoEntry(t *testing.T) {
	cfg := testConfig()
	cfg.WriteRetries = -1 // the first failed write is final
	// The paper's raw path, where the create writes its data itself; with
	// a data cache the force writes it (TestHeldWriteFailsAtForce).
	cfg.DataCachePages = -1
	v, d, _ := newTestVolumeWith(t, cfg)
	if _, err := v.Create("kept", payload(900, 1)); err != nil {
		t.Fatal(err)
	}
	free := v.VAM().FreeCount()
	d.InjectFaults(disk.FaultConfig{Seed: 1, TransientWrite: 1})
	if _, err := v.Create("ghost", payload(2000, 3)); err == nil {
		t.Fatal("create succeeded with every write failing")
	}
	d.ClearFaults()
	if _, err := v.Stat("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat of the failed create = %v, want ErrNotFound", err)
	}
	if got := v.VAM().FreeCount(); got != free {
		t.Fatalf("failed create kept %d pages", free-got)
	}
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("verify after the failed create: %v, %v", vs.Problems, err)
	}
}

// TestStaleHandleOpsRefused: every handle operation that writes the entry is
// refused once the file is gone — deleted, or deleted and created again under
// the same name and version — and leaves no pages allocated behind.
func TestStaleHandleOpsRefused(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		v, _, _ := newTestVolumeWith(t, cfg)
		f, err := v.Create("s/f", payload(1500, 1))
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			free := v.VAM().FreeCount()
			for op, err := range map[string]error{
				"Extend": f.Extend(3), "Contract": f.Contract(1), "SetByteSize": f.SetByteSize(10),
			} {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s through a stale handle, %s = %v, want ErrNotFound", op, when, err)
				}
			}
			if err := v.DrainIntents(); err != nil {
				t.Fatal(err)
			}
			if got := v.VAM().FreeCount(); got != free {
				t.Fatalf("refused operations, %s, kept %d pages", when, free-got)
			}
		}
		if err := v.Delete("s/f", 0); err != nil {
			t.Fatal(err)
		}
		check("after the delete")
		if _, err := v.Create("s/f", payload(200, 2)); err != nil {
			t.Fatal(err)
		}
		check("after the name was created again")
		if e, err := v.Stat("s/f", 0); err != nil || e.ByteSize != 200 || e.Pages() != 1 {
			t.Fatalf("the new file after stale-handle operations: %+v, %v", e, err)
		}
		if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
			t.Fatalf("verify: %v, %v", vs.Problems, err)
		}
	})
}
