package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/allocgate"
	"repro/internal/disk"
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

// retryVolume builds a volume whose rename of a/x to z/x has to read the old
// name's leaf from the platter in its second step: the name-table cache holds
// two pages and starts empty, so the first step's pages push the leaf out. From
// the first step's append on every read fails once, and with ReadRetries -1 a
// fault reaches the apply instead of clearing inside the cache. onFault, when
// set, runs in that append hook, on the goroutine applying the rename.
func retryVolume(t *testing.T, cfg Config, onFault func(v *Volume)) (*Volume, *disk.Disk, Config) {
	t.Helper()
	cfg.ReadRetries = -1
	cfg.CacheSize = 2
	v, d, _ := newTestVolumeWith(t, cfg)
	if _, err := v.Create("a/x", payload(300, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ { // enough names between a/ and z/ for several leaves
		if _, err := v.Create(fmt.Sprintf("m/f%03d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if v.nt.Height() < 2 {
		t.Fatal("name table is a single leaf; the rename's steps would share a page")
	}
	var appends atomic.Int64
	prev := v.log.OnAppend
	v.log.OnAppend = func(images int, seq uint64) {
		prev(images, seq)
		if appends.Add(1) == 1 { // the first step has staged; fail what the second reads
			d.InjectFaults(disk.FaultConfig{Seed: 1, TransientRead: 1})
			if onFault != nil {
				onFault(v)
			}
		}
	}
	return v, d, cfg
}

// TestFailedIntentReadsEachCopyOnce: a rename whose second step meets a
// transient read fault fails once, staged or queued. The name-table cache
// reads each copy of the page once (2 failed reads), the volume goes
// read-only, and nothing applies the intent again to read the pair a second
// time. A remount finds the rename undone.
func TestFailedIntentReadsEachCopyOnce(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		v, d, cfg := retryVolume(t, cfg, nil)
		before := d.FaultStats().TransientErrors
		err := v.Rename("a/x", "z/x")
		if err == nil {
			err = v.DrainIntents()
		}
		if err == nil {
			t.Fatal("rename succeeded with the name table unreadable")
		}
		waitHealth(t, v, HealthReadOnly)
		if got := d.FaultStats().TransientErrors - before; got != 2 {
			t.Fatalf("the failed rename met %d failed reads, want 2: each copy once", got)
		}
		d.ClearFaults()
		v2, err := remount(v, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, z := versions(t, v2, "a/x"), versions(t, v2, "z/x"); len(a) != 1 || len(z) != 0 {
			t.Fatalf("failed rename left a/x %v and z/x %v", a, z)
		}
	})
}

// TestFatalApplyAbortsGroup: a force parked behind the queued rename's open
// group, started once the first step has staged, meets the failed second
// step. The group ends by Abort: the volume goes read-only, the parked force
// and every later one are refused, and nothing of the half-applied rename is
// ever forced.
func TestFatalApplyAbortsGroup(t *testing.T) {
	cfg := testConfig()
	cfg.AsyncApply = true
	forced := make(chan (<-chan error), 1)
	v, d, cfg := retryVolume(t, cfg, func(v *Volume) { forced <- forceAside(v.log) })
	if err := v.Rename("a/x", "z/x"); err != nil {
		t.Fatal(err)
	}
	if err := v.DrainIntents(); err == nil {
		t.Fatal("drain succeeded with the name table unreadable")
	}
	waitHealth(t, v, HealthReadOnly)
	if err := <-<-forced; !errors.Is(err, wal.ErrAborted) {
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
