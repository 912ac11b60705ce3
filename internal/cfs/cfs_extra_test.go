package cfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/vam"
)

func TestKeepPurgesOldVersions(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("k", payload(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Set keep=2 by writing it into the name-table entry via the public
	// surface: CFS inherits keep from the previous newest version at
	// create, so plant it directly.
	e := f.Entry()
	e.Keep = 2
	v.mu.Lock()
	if err := v.nt.Put(entryKey("k", 1), encodeNTEntry(&e)); err != nil {
		v.mu.Unlock()
		t.Fatal(err)
	}
	v.mu.Unlock()
	for i := 2; i <= 5; i++ {
		if _, err := v.Create("k", payload(10, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Open("k", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("version 3 should be purged: %v", err)
	}
	for _, ver := range []uint32{4, 5} {
		if _, err := v.Open("k", ver); err != nil {
			t.Fatalf("version %d missing: %v", ver, err)
		}
	}
}

func TestStatReturnsHeaderFields(t *testing.T) {
	v, _, _ := newTestVolume(t)
	if _, err := v.Create("s", payload(777, 1)); err != nil {
		t.Fatal(err)
	}
	e, err := v.Stat("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.ByteSize != 777 || len(e.Runs) == 0 {
		t.Fatalf("Stat: %+v", e)
	}
	f, _ := v.Open("s", 0)
	if f.Size() != 777 {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestMountRebuildsVAMFromHeadersWhenUnsaved(t *testing.T) {
	v, d, _ := newTestVolume(t)
	want := map[string][]byte{}
	for i := 0; i < 15; i++ {
		name := fmt.Sprintf("rb/f%02d", i)
		data := payload(300+i*7, byte(i))
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	freeBefore := v.VAM().FreeCount()
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Destroy the saved VAM stamp; the volume is still clean, so mount
	// succeeds but must rebuild the hint map from the headers.
	if err := vam.Invalidate(d.WriteSectors, v.lay.vamBase); err != nil {
		t.Fatal(err)
	}
	v2, err := Mount(d, testConfig())
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if got := v2.VAM().FreeCount(); got != freeBefore {
		t.Fatalf("rebuilt FreeCount %d != %d", got, freeBefore)
	}
	for name, data := range want {
		f, err := v2.Open(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s corrupted: %v", name, err)
		}
	}
	// Allocation after the rebuild doesn't collide with existing files.
	if _, err := v2.Create("rb/after", payload(100, 9)); err != nil {
		t.Fatal(err)
	}
	for name, data := range want {
		f, _ := v2.Open(name, 0)
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s overwritten after rebuild: %v", name, err)
		}
	}
}

func TestMetaIOCounter(t *testing.T) {
	v, _, _ := newTestVolume(t)
	v.ResetMetaIOs()
	if _, err := v.Create("m", payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	// Verify-free + header labels + data labels + header write + nt write
	// + header rewrite: at least 6 metadata-purpose I/Os.
	if n := v.MetaIOs(); n < 6 {
		t.Fatalf("MetaIOs = %d after create, want >= 6", n)
	}
	v.ResetMetaIOs()
	f, _ := v.Open("m", 0)
	if n := v.MetaIOs(); n != 1 {
		t.Fatalf("MetaIOs = %d after open, want 1 (the header)", n)
	}
	v.ResetMetaIOs()
	if _, err := f.ReadPages(0, 1); err != nil {
		t.Fatal(err)
	}
	if n := v.MetaIOs(); n != 0 {
		t.Fatalf("MetaIOs = %d after data read, want 0", n)
	}
}

func TestDropCachesForcesNTReads(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if _, err := v.Create("dc", payload(50, 1)); err != nil {
		t.Fatal(err)
	}
	v.DropCaches()
	before := d.Stats()
	if _, err := v.Open("dc", 0); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.Reads < 2 {
		t.Fatalf("cold open did %d reads, want >= 2 (nt page + header)", delta.Reads)
	}
}

func TestModelInfo(t *testing.T) {
	v, _, _ := newTestVolume(t)
	if n := v.ModelInfo(); n < 0 {
		t.Fatalf("ModelInfo = %d", n)
	}
	if v.CPU() == nil || v.Disk() == nil {
		t.Fatal("accessors nil")
	}
}

func TestNTCacheEviction(t *testing.T) {
	// A tiny cache forces evictions while keeping correctness: all files
	// stay reachable even when their name-table pages cycle in and out.
	v, _, _ := newTestVolume(t)
	v.pager.cap = 2
	for i := 0; i < 120; i++ {
		if _, err := v.Create(fmt.Sprintf("ev/x%03d", i), payload(30, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(v.pager.cache) > 3 {
		t.Fatalf("cache grew to %d entries with cap 2", len(v.pager.cache))
	}
	for i := 0; i < 120; i++ {
		if _, err := v.Open(fmt.Sprintf("ev/x%03d", i), 0); err != nil {
			t.Fatalf("x%03d lost under eviction: %v", i, err)
		}
	}
}

// TestScavengeCrashPointSweep crashes CFS at many points during a mixed
// workload and verifies the scavenger's contract at each: every file whose
// header and labels reached the disk is recovered, and the rebuilt volume
// is structurally sound and usable. (Unlike FSD there is no durability
// line — CFS creates are synchronous, so a file is expected back once its
// final header rewrite completed.)
func TestScavengeCrashPointSweep(t *testing.T) {
	totalWrites := func() int {
		v, d, _ := newTestVolume(t)
		runCFSWorkload(t, v)
		return d.Stats().Writes
	}()
	step := totalWrites / 12
	if step == 0 {
		step = 1
	}
	for cut := 3; cut < totalWrites; cut += step {
		cut := cut
		t.Run(fmt.Sprintf("afterWrite%03d", cut), func(t *testing.T) {
			v, d, _ := newTestVolume(t)
			d.SetWriteFault(disk.FailAfterWrites(cut, 0))
			completed := runCFSWorkload(t, v)
			d.Revive()
			v2, st, err := Scavenge(d, testConfig())
			if err != nil {
				t.Fatalf("scavenge after crash at %d: %v", cut, err)
			}
			for name, data := range completed {
				f, err := v2.Open(name, 0)
				if err != nil {
					t.Fatalf("crash at %d: completed %s lost: %v", cut, name, err)
				}
				got, err := f.ReadAll()
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("crash at %d: %s corrupted: %v", cut, name, err)
				}
			}
			if _, err := v2.Create("post/crash", payload(99, 1)); err != nil {
				t.Fatalf("crash at %d: create after scavenge: %v", cut, err)
			}
			_ = st
		})
	}
}

// runCFSWorkload creates and deletes files, returning the contents of every
// create that fully completed (CFS creates are synchronous). It stops at
// the first halt.
func runCFSWorkload(t *testing.T, v *Volume) map[string][]byte {
	t.Helper()
	completed := map[string][]byte{}
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("mix/f%03d", i)
		data := payload(120+i*23, byte(i))
		if _, err := v.Create(name, data); err != nil {
			if errors.Is(err, disk.ErrHalted) {
				return completed
			}
			t.Fatal(err)
		}
		completed[name] = data
		if i%6 == 5 {
			victim := fmt.Sprintf("mix/f%03d", i-2)
			if err := v.Delete(victim, 0); err != nil {
				if errors.Is(err, disk.ErrHalted) {
					// The delete may be half-done (some labels freed);
					// the scavenger may or may not resurrect it, so
					// drop it from the expectations either way.
					delete(completed, victim)
					return completed
				}
				t.Fatal(err)
			}
			delete(completed, victim)
		}
	}
	return completed
}
