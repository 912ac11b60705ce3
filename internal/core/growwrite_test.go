package core

import (
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestGrowingWriteIsOneCall: a write that runs past the allocation is one
// call into the volume and one intent — the new pages, the data and the
// entry that names them together — where it was an Extend, a write and a
// size update, three calls and two intents. A stream of 32 KB chunks through
// File.WriteAt (the call the FS adapter's handle makes for each chunk of a
// wire write stream) charges each chunk, on the caller's CPU, one syscall and
// the copy of its 64 sectors, and hands off one intent. A crash before the
// force leaves neither the size nor the pages; a write that fails part-way
// through a grow frees its pages and leaves Verify clean. A write into pages
// already allocated that moves the end of file is one call and one intent
// as well, where it was a write and a size update: two calls, two syscalls.
func TestGrowingWriteIsOneCall(t *testing.T) {
	const (
		chunk  = 32 << 10
		chunks = 6
	)
	t.Run("cost", func(t *testing.T) {
		// Two inputs: chunks that each run past the allocation, and the same
		// chunks into pages an Extend allocated ahead, which move only the
		// end of file — one call and one intent too, not a write and a size
		// update.
		for _, ahead := range []int{0, chunks * chunk / disk.SectorSize} {
			growCost(t, chunks, chunk, ahead)
		}
	})
	t.Run("fault", func(t *testing.T) { bothModes(t, growFault) })
}

// growCost is TestGrowingWriteIsOneCall's cost part: a stream of chunks
// through WriteAt into a new file with ahead pages allocated, each one call,
// one intent and the caller's syscall and copy, and a crash before the force
// that takes all of it back.
func growCost(t *testing.T, chunks, chunk, ahead int) {
	cfg := testConfig()
	cfg.AsyncApply = true
	v, d, _ := newTestVolumeWith(t, cfg)
	f, err := v.Create("g/one", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ahead > 0 {
		if err := f.Extend(ahead); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	free := v.VAM().FreeCount()
	calls := func() (n int64) {
		for _, sp := range v.Stats().Spans {
			n += sp.Count
		}
		return n
	}
	want := sim.CostSyscall + time.Duration(chunk/disk.SectorSize)*sim.CostPerSectorCopy
	p := payload(chunk, 1)
	for i := 0; i < chunks; i++ {
		// The applier is parked while the chunk goes in, so what the CPU is
		// charged is the caller's alone; the applier's B-tree work comes
		// after the call.
		v.q.Suspend()
		busy, enq, n := v.cpu.Busy(), v.q.Enqueued(), calls()
		_, err := f.WriteAt(p, int64(i*chunk))
		got, intents, spans := v.cpu.Busy()-busy, v.q.Enqueued()-enq, calls()-n
		v.q.Resume()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || intents != 1 || spans != 1 {
			t.Errorf("%d pages ahead, chunk %d: %d calls into the volume, %d intents, caller's CPU %v; want 1, 1, %v (one syscall and the copy)",
				ahead, i, spans, intents, got, want)
		}
		if err := v.DrainIntents(); err != nil {
			t.Fatal(err)
		}
	}
	if e := f.Entry(); e.ByteSize != uint64(chunks*chunk) || e.Pages() != chunks*chunk/disk.SectorSize {
		t.Fatalf("%d pages ahead: grown file: %d bytes in %d pages", ahead, e.ByteSize, e.Pages())
	}
	if got := v.Stats().Commit.HeldSectors; got != 0 {
		t.Fatalf("%d sectors written by a force before the crash", got)
	}
	// The crash comes before the force: no grow was committed.
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := v2.Stat("g/one", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.ByteSize != 0 || e.Pages() != ahead {
		t.Fatalf("after the crash: %d bytes in %d pages, want the empty file of %d pages", e.ByteSize, e.Pages(), ahead)
	}
	if got := v2.VAM().FreeCount(); got != free {
		t.Fatalf("after the crash %d pages free, want %d", got, free)
	}
	if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after the crash: %v, %v", err, vs.Problems)
	}
}

// growFault is TestGrowingWriteIsOneCall's write fault part-way through a
// grow.
func growFault(t *testing.T, cfg Config) {
	const chunk = 32 << 10
	// 80 sectors may be held: a 64 KB grow's first chunk is held, and its
	// second goes out at once, into the fault.
	cfg.DataCachePages = 160
	cfg.WriteRetries = -1
	v, d, _ := newTestVolumeWith(t, cfg)
	free := v.VAM().FreeCount()
	f, err := v.Create("g/two", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(disk.FaultConfig{Seed: 1, TransientWrite: 1})
	if _, err := f.WriteAt(payload(2*chunk, 2), 0); err == nil {
		t.Fatal("the grow succeeded with every write failing")
	}
	d.ClearFaults()
	if st := v.Stats(); st.Commit.HeldWriteThrough != 1 || d.FaultStats().TransientWrites == 0 {
		t.Fatalf("%d writes past the hold cap, %d failed: the grow did not fail part-way",
			st.Commit.HeldWriteThrough, d.FaultStats().TransientWrites)
	}
	if err := v.DrainIntents(); err != nil {
		t.Fatal(err)
	}
	e, err := v.Stat("g/two", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.ByteSize != 0 || e.Pages() != 0 || f.Pages() != 0 {
		t.Fatalf("after the failed grow: %d bytes in %d pages (handle: %d), want the empty file", e.ByteSize, e.Pages(), f.Pages())
	}
	if got, held := v.VAM().FreeCount(), v.dataCache.Stats().Held; got != free-1 || held != 0 {
		t.Fatalf("after the failed grow %d pages free, %d sectors held; want %d (the leader's taken) and 0", got, held, free-1)
	}
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after the failed grow: %v, %v", err, vs.Problems)
	}
}
