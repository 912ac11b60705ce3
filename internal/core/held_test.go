package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
)

// The tests of held writes (held.go, DESIGN §12 "Held writes"): on a volume
// with a data cache, a write to fresh pages waits in held frames for the
// next force, which writes it ahead of the record that names it.

// dataSectors returns what the platter holds in the data pages of e.
func dataSectors(t *testing.T, d *disk.Disk, e Entry) []byte {
	t.Helper()
	var out []byte
	for p := 0; p < e.Pages(); p++ {
		addr, _, err := e.ContiguousFrom(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.ReadSectors(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestFreshUntilForce: what a create and an Extend allocate is fresh until
// the next force, also where two growths of one group meet; a range with a
// page from an earlier group is not. A volume without a data cache, which
// holds nothing, keeps no list of fresh runs at all.
func TestFreshUntilForce(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("h/old", payload(disk.SectorSize, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Extend(20); err != nil {
			t.Fatal(err)
		}
	}
	runs := f.Entry().Runs
	old := runs[0]
	for _, r := range runs[1:] {
		if !v.fresh(int(r.Start), int(r.Len)) {
			t.Fatalf("grown run %v (of %v) is not fresh", r, runs)
		}
	}
	if v.fresh(int(old.Start), int(old.Len)) {
		t.Fatal("a page of an earlier group counts as fresh")
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if last := runs[len(runs)-1]; v.fresh(int(last.Start), 1) {
		t.Fatal("fresh after the force")
	}

	cfg := testConfig()
	cfg.DataCachePages = -1
	raw, _, _ := newTestVolumeWith(t, cfg)
	for i := 0; i < 10; i++ {
		if _, err := raw.Create(fmt.Sprintf("raw/f%d", i), payload(600, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(raw.group.runs); n != 0 {
		t.Fatalf("a volume without a data cache lists %d fresh runs", n)
	}
}

// TestHeldReadHitsFrames: before the force, a read — a fresh handle's,
// leader check included — gets the held bytes and reads nothing from the
// disk; so does one of a streamed file whose first chunk went home at an
// earlier force and whose last is held, for its held part.
func TestHeldReadHitsFrames(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := payload(3000, 7)
	if _, err := v.Create("h/one", data); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	f, err := v.Open("h/one", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read of a held create: %v", err)
	}
	if delta := d.Stats().Sub(before); delta.Ops != 0 {
		t.Fatalf("read of a held create did %d disk ops, want 0", delta.Ops)
	}

	s, err := v.Create("h/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	head, tail := scrambled(64*disk.SectorSize, 1), scrambled(20*disk.SectorSize+100, 2)
	w := io.NewOffsetWriter(s, 0)
	if _, err := w.Write(head); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(tail); err != nil {
		t.Fatal(err)
	}
	if v.dataCache.Stats().Held == 0 {
		t.Fatal("a chunk into pages its growing write just allocated was not held")
	}
	before = d.Stats()
	r, err := v.Open("h/stream", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err = r.ReadAll()
	if err != nil || !bytes.Equal(got, append(append([]byte(nil), head...), tail...)) {
		t.Fatalf("read across home and held sectors: %v", err)
	}
	if delta := d.Stats().Sub(before); delta.SectorsRead > 65 {
		t.Fatalf("read %d sectors from the disk; the held ones must come from their frames", delta.SectorsRead)
	}
}

// TestHeldDeleteWritesNothing: a file deleted before the force has none of
// its sectors written: stepFree drops its held frames.
func TestHeldDeleteWritesNothing(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("h/gone", payload(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Delete("h/gone", 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats().Commit; st.HeldSectors != 0 {
		t.Fatalf("the force wrote %d held sectors of a deleted file", st.HeldSectors)
	}
	e := f.Entry()
	addr, _ := e.LeaderAddr()
	b, err := d.ReadSectors(addr, e.Pages()+1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, make([]byte, len(b))) {
		t.Fatal("a sector of the deleted file reached the platter")
	}
}

// TestHeldCrashBeforeForce: a crash before the force leaves neither the
// entry nor the data, on a write-back disk too; a forced create is whole.
func TestHeldCrashBeforeForce(t *testing.T) {
	v, d, _ := newTestVolume(t)
	d.EnableWriteBack()
	kept := payload(1500, 4)
	if _, err := v.Create("h/kept", kept); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	f, err := v.Create("h/lost", payload(1500, 5))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := remount(v, d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Stat("h/lost", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat of the unforced create = %v, want ErrNotFound", err)
	}
	if got := dataSectors(t, d, f.Entry()); !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("the unforced create's data reached the platter")
	}
	g, err := v2.Open("h/kept", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := g.ReadAll(); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("forced create after the crash: %v", err)
	}
}

// TestHeldWriteFailsAtForce: a held write that fails at the force fails the
// force with its batch restored and its frames still held, charged to the
// health FSM like any write fault; the next force commits both.
func TestHeldWriteFailsAtForce(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := payload(2500, 6)
	if _, err := v.Create("h/retry", data); err != nil {
		t.Fatal(err)
	}
	held := v.dataCache.Stats().Held
	d.InjectFaults(disk.FaultConfig{Seed: 1, TransientWrite: 1})
	if err := v.Force(); err == nil {
		t.Fatal("force succeeded with every write failing")
	}
	d.ClearFaults()
	if got := v.dataCache.Stats().Held; got != held || held == 0 {
		t.Fatalf("%d frames held after the failed force, want the %d held before", got, held)
	}
	if v.log.PendingImages() == 0 {
		t.Fatal("the failed force lost its batch")
	}
	if st := v.Stats().Faults; st.WriteRetries == 0 {
		t.Fatalf("the failed held write was not charged: %+v", st)
	}
	// The health FSM stops the volume's own mutations after a write that
	// failed past its retries; the log's next force is what must work.
	if err := v.log.Force(); err != nil {
		t.Fatal(err)
	}
	if held, st := v.dataCache.Stats().Held, v.Stats().Commit; held != 0 || st.HeldSectors == 0 {
		t.Fatalf("after the retried force: %d held, %d written", held, st.HeldSectors)
	}
	v2, err := remount(v, d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := v2.Open("h/retry", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("create committed by the retried force: %v", err)
	}
}

// TestHeldCapWritesThrough: a write that would take the held frames past
// half the data cache goes out at once, and says so.
func TestHeldCapWritesThrough(t *testing.T) {
	cfg := testConfig()
	cfg.DataCachePages = 64 // 32 sectors may be held
	v, d, _ := newTestVolumeWith(t, cfg)
	before := d.Stats()
	data := payload(40*disk.SectorSize, 8)
	if _, err := v.Create("h/big", data); err != nil {
		t.Fatal(err)
	}
	if delta := d.Stats().Sub(before); delta.Writes != 1 {
		t.Fatalf("a create past the cap did %d writes, want 1", delta.Writes)
	}
	if st, held := v.Stats().Commit, v.dataCache.Stats().Held; st.HeldWriteThrough != 1 || held != 0 {
		t.Fatalf("HeldWriteThrough %d, held %d; want 1, 0", st.HeldWriteThrough, held)
	}
	if _, err := v.Create("h/small", payload(600, 9)); err != nil {
		t.Fatal(err)
	}
	if got := v.dataCache.Stats().Held; got != 3 {
		t.Fatalf("a create under the cap held %d sectors, want 3", got)
	}
}

// TestHeldCapRefreshesHeldLeader: past the cap, a write into a grown file
// goes out at once with the leader its Extend staged, and the create's held
// leader frame takes the new bytes with it, so the force writes that leader,
// not the create's over it: a new handle, and the volume after a crash, read
// the file.
func TestHeldCapRefreshesHeldLeader(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		cfg.DataCachePages = 64 // 32 sectors may be held
		v, d, _ := newTestVolumeWith(t, cfg)
		f, err := v.Create("h/grow", payload(2*disk.SectorSize, 1)) // 3 held
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Create("h/fill", payload(28*disk.SectorSize, 2)); err != nil { // 29 more: the cap
			t.Fatal(err)
		}
		if err := f.Extend(4); err != nil {
			t.Fatal(err)
		}
		data := scrambled(3*disk.SectorSize, 3)
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if got := v.Stats().Commit.HeldWriteThrough; got == 0 {
			t.Fatal("the write at the cap was held")
		}
		if err := v.DrainIntents(); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		check := func(v *Volume, when string) {
			t.Helper()
			g, err := v.Open("h/grow", 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := g.ReadPages(0, 3); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: read of the grown file: %v", when, err)
			}
		}
		check(v, "after the force")
		v2, err := remount(v, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(v2, "after a crash")
		if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
			t.Fatalf("Verify after a crash: %v, %v", err, vs.Problems)
		}
	})
}

// TestHeldLeaderCheckWaitsForOwnExtend: on an AsyncApply volume, a handle
// that extends a file created in the current group and reads it at once
// checks the leader only once its Extend has applied and staged the leader
// that goes with it — not the create's held leader against the grown entry.
func TestHeldLeaderCheckWaitsForOwnExtend(t *testing.T) {
	cfg := testConfig()
	cfg.AsyncApply = true
	v, _, _ := newTestVolumeWith(t, cfg)
	data := payload(3*disk.SectorSize, 5)
	if _, err := v.Create("h/ext", data); err != nil {
		t.Fatal(err)
	}
	g, err := v.Open("h/ext", 0)
	if err != nil {
		t.Fatal(err)
	}
	v.q.Suspend()
	if err := g.Extend(4); err != nil {
		v.q.Resume()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(data))
		_, err := g.ReadAt(buf, 0)
		if err == nil && !bytes.Equal(buf, data) {
			err = errors.New("read back wrong")
		}
		done <- err
	}()
	select {
	case err := <-done:
		v.q.Resume()
		t.Fatalf("the read returned (%v) before the handle's Extend applied", err)
	case <-time.After(50 * time.Millisecond):
	}
	v.q.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestLiveCheckTreatsHeldLeaderAsPending: a live Verify and Scrub take a
// held leader for what it is, one not home yet: neither reads the platter
// under it, where a stray write has landed, and neither reports or repairs
// anything; the force then puts it right.
func TestLiveCheckTreatsHeldLeaderAsPending(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("h/lead", payload(900, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entry()
	addr, _ := e.LeaderAddr()
	d.SmashSector(addr, payload(512, 0x77), nil)
	vs, err := v.Verify()
	if err != nil || len(vs.Problems) != 0 || vs.LeadersPending != 1 {
		t.Fatalf("Verify: %v, %v problems, %d pending", err, vs.Problems, vs.LeadersPending)
	}
	ss, err := v.Scrub()
	if err != nil || len(ss.Problems) != 0 || ss.LeadersRepaired != 0 {
		t.Fatalf("Scrub: %v, %v problems, %d repaired", err, ss.Problems, ss.LeadersRepaired)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	vs, err = v.Verify()
	if err != nil || len(vs.Problems) != 0 || vs.LeadersPending != 0 {
		t.Fatalf("Verify after the force: %v, %v problems, %d pending", err, vs.Problems, vs.LeadersPending)
	}
}

// TestDamageKeepsHeldFrames: the damage observer drops cached frames, but
// never a held one — the held write is what repairs the sector.
func TestDamageKeepsHeldFrames(t *testing.T) {
	v, d, _ := newTestVolume(t)
	data := payload(8*disk.SectorSize, 4)
	f, err := v.Create("h/dmg", data)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entry()
	addr, _, err := e.ContiguousFrom(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(addr, 1)
	if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read of a held sector damaged on the platter: %v", err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if got := dataSectors(t, d, e); !bytes.Equal(got, data) {
		t.Fatal("the force's write did not repair the damaged sector")
	}
}

// TestHeldCopyChargedInOpen: a held chunk's copy has no transfer beside it,
// so none of it, nor of the chunk's before it, leaves the clock.
func TestHeldCopyChargedInOpen(t *testing.T) {
	v, d, clk := newTestVolume(t)
	f, err := v.Create("h/copy", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Extend(2 * MaxTransferSectors); err != nil {
		t.Fatal(err)
	}
	c := measure(t, v, d, clk, func() error {
		return f.WritePages(0, payload(2*MaxTransferSectors*disk.SectorSize, 5))
	})
	if c.disk != 0 || len(c.reqs) != 0 {
		t.Fatalf("a held write moved the disk: %v busy, %d requests", c.disk, len(c.reqs))
	}
	if c.hidden() != 0 || c.busy < copyTime(2*MaxTransferSectors) {
		t.Fatalf("busy %v, %v hidden; want every copy (%v) in the open", c.busy, c.hidden(), copyTime(2*MaxTransferSectors))
	}
}

// TestHeldWritesUnderConcurrency: streams, reads, deletes and forces from
// several goroutines at once, staged and async; every file reads back what
// was written, before and after a crash that follows a last force. Run it
// under the race detector.
func TestHeldWritesUnderConcurrency(t *testing.T) {
	bothModes(t, func(t *testing.T, cfg Config) {
		v, d, _ := newTestVolumeWith(t, cfg)
		const writers, files = 4, 6
		var wg sync.WaitGroup
		errs := make(chan error, writers+1)
		want := make([]map[string][]byte, writers)
		for w := 0; w < writers; w++ {
			want[w] = map[string][]byte{}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < files; i++ {
					name := fmt.Sprintf("c%d/f%d", w, i)
					data := scrambled(1000+w*3000+i*4100, int64(w*100+i))
					f, err := v.Create(name, nil)
					if err == nil {
						_, err = io.Copy(io.NewOffsetWriter(f, 0), bytes.NewReader(data))
					}
					if err == nil {
						var got []byte
						if got, err = f.ReadAll(); err == nil && !bytes.Equal(got, data) {
							err = fmt.Errorf("%s reads back wrong", name)
						}
					}
					if err == nil && i%3 == 2 {
						err = v.Delete(name, 0)
						data = nil
					}
					if err != nil {
						errs <- err
						return
					}
					if data != nil {
						want[w][name] = data
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := v.Force(); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := v.DrainIntents(); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		v2, err := remount(v, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range want {
			for name, data := range m {
				f, err := v2.Open(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s after the crash: %v", name, err)
				}
			}
		}
	})
}
