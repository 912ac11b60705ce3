package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
)

// TestDeletedLeaderWrittenHomeUntilCommit: a file's deferred leader write
// stays pending until the file's deletion commits. An empty file's leader is
// logged once, at its create; Touches re-log its name-table page into the
// next two thirds, but not the leader. Padding creates, each forced alone,
// then fill the third before the leader's until less is left of it than a
// batch of the deletion and a dozen more creates takes — a batch shorter
// than a third, so nothing forces it early. That batch's force enters the
// third holding the leader's only logged image — whose flush must still
// write the leader home — and the device halts at the force's first write
// into that third, before the deletion commits. After the crash the file is
// still there, and its leader is home. Both with the intents applied inline
// and by the asynchronous applier.
func TestDeletedLeaderWrittenHomeUntilCommit(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			deleteLeaderAcrossThird(t, async)
		})
	}
}

func deleteLeaderAcrossThird(t *testing.T, async bool) {
	cfg := testConfig()
	cfg.AsyncApply = async
	cfg.LogSectors = 4 + 3*83
	cfg.GroupCommitInterval = time.Hour // only the explicit forces commit
	v, d, _ := newTestVolumeWith(t, cfg)
	f, err := v.Create("victim", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	addr, _ := f.e.LeaderAddr()
	img, _ := v.leaders.staged(addr)
	if img == nil || !v.log.Logged(wal.KindLeader, uint64(addr)) {
		t.Fatal("the empty file's leader went home at its create")
	}
	third := recordThird(t, v, addr)
	crossings := v.Log().Stats().ThirdCrossings
	for v.Log().Stats().ThirdCrossings < crossings+2 {
		if err := v.Touch("victim", 0); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if img, _ = v.leaders.staged(addr); img == nil {
		t.Fatal("the leader went home before its third was reached again")
	}

	pad := 0
	create := func() {
		t.Helper()
		if _, err := v.Create(fmt.Sprintf("pad/%03d", pad), nil); err != nil {
			t.Fatal(err)
		}
		pad++
	}
	for {
		info, err := wal.Inspect(d, v.lay.logBase, v.lay.logSize)
		if err != nil {
			t.Fatal(err)
		}
		last := info.Records[len(info.Records)-1]
		tail, tl := last.Offset+last.Sectors, info.ThirdLen
		if tail/tl != (third+2)%3 {
			t.Fatalf("the log writes at %d, not in the third before the leader's (%d)", tail, third)
		}
		if (tail/tl+1)*tl-tail < 30 {
			break
		}
		create()
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
	}

	if err := v.Delete("victim", 0); err != nil {
		t.Fatal(err)
	}
	for range 12 {
		create()
	}
	tl := (cfg.LogSectors - 4) / 3
	lo := v.lay.logBase + 4 + third*tl
	entered := false
	d.SetWriteFault(func(a, n int) *disk.WriteFault {
		if a >= lo && a < lo+tl {
			entered = true
			return &disk.WriteFault{Halt: true}
		}
		return nil
	})
	if err := v.Force(); err == nil {
		t.Fatal("the force committed the deletion; it was to halt on entering the leader's third")
	}
	if !entered {
		t.Fatal("the force failed before it entered the leader's third")
	}
	v.Crash()
	d.Revive()

	v2, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vs, err := v2.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify: %v %v", err, vs.Problems)
	}
	g, err := v2.Open("victim", 0)
	if err != nil {
		t.Fatalf("the uncommitted deletion took the file: %v", err)
	}
	if got, err := g.ReadAll(); err != nil || !bytes.Equal(got, nil) {
		t.Fatalf("victim reads %q, %v", got, err)
	}
	home, err := d.ReadSectors(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyLeader(home, &g.e); err != nil {
		t.Fatalf("leader at %d is not home: %v", addr, err)
	}
}

// recordThird is the log division of the newest record that holds the image
// of the leader at addr, as the log's inspector reads it from the platter.
func recordThird(t *testing.T, v *Volume, addr int) int {
	t.Helper()
	info, err := wal.Inspect(v.d, v.lay.logBase, v.lay.logSize)
	if err != nil {
		t.Fatal(err)
	}
	third := -1
	for _, r := range info.Records {
		for _, im := range r.Targets {
			if im.Kind == wal.KindLeader && im.Target == uint64(addr) {
				third = r.Offset / info.ThirdLen
			}
		}
	}
	if third < 0 {
		t.Fatalf("no record holds the leader at %d", addr)
	}
	return third
}

// TestCrossingOlderLeaderKeepsPendingOne: a file's committed leader L1 is in
// the log, and an Extend has staged L2, pending and not yet committed. A
// write of page 0 takes L2 from the leader set and puts it home with the
// page; a third crossing, which took the set's lock meanwhile, then writes
// L1 over it — the order a write-fault hook forces here. The write must not
// then drop L2 from the set: home holds L1, and once L2 commits, the
// crossing that hands it over must still find it staged and write it home,
// or the leader stays stale with no crash at all.
func TestCrossingOlderLeaderKeepsPendingOne(t *testing.T) {
	cfg := testConfig()
	cfg.GroupCommitInterval = time.Hour // only the explicit forces commit
	v, d, _ := newTestVolumeWith(t, cfg)
	f, err := v.Create("f", bytes.Repeat([]byte{1}, disk.SectorSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	addr, _ := f.e.LeaderAddr()
	l1, err := d.ReadSectors(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Extend(1); err != nil {
		t.Fatal(err)
	}
	l2, _ := v.leaders.staged(addr)
	if l2 == nil || bytes.Equal(l1, l2) {
		t.Fatal("the Extend staged no new leader image")
	}

	crossed := make(chan error, 1)
	d.SetWriteFault(func(a, n int) *disk.WriteFault {
		if a != addr || n < 2 {
			return nil
		}
		go func() {
			_, err := v.flushLeaders([]wal.PageImage{{Kind: wal.KindLeader, Target: uint64(addr), Data: l1}})
			crossed <- err
		}()
		// Let the write land only once the crossing holds the table's
		// lock: its write of L1 then waits for this one, and the writer's
		// look at the pending table waits for the crossing.
		for deadline := time.Now().Add(5 * time.Second); v.leaders.mu.TryLock(); {
			v.leaders.mu.Unlock()
			if time.Now().After(deadline) {
				t.Error("the crossing never took the table's lock")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err := f.WritePages(0, bytes.Repeat([]byte{2}, disk.SectorSize)); err != nil {
		t.Fatal(err)
	}
	d.SetWriteFault(nil)
	if err := <-crossed; err != nil {
		t.Fatal(err)
	}
	if home, _ := d.ReadSectors(addr, 1); !bytes.Equal(home, l1) {
		t.Fatal("the crossing's write of L1 did not land after the page's")
	}
	if err := v.log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	home, err := d.ReadSectors(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyLeader(home, &f.e); err != nil {
		t.Fatalf("the leader at %d is stale after L2 committed and went home: %v", addr, err)
	}
}

// TestHomeWriteCrossingLeaderRead: a fresh handle reads the start of a file
// whose leader is not home — staged, or held by the create — while one of
// the three writers that move a leader out of the leader set crosses the
// read: a third crossing that writes the committed image home, a second
// handle's page-0 write that carries the staged image, and the force's pass
// over the held sectors. A disk-op hook starts the writer when the read's
// data request ends, and lets the request go only once the writer holds its
// lock, so that its write waits for the device and lands after the read. The
// handle checks its leader before the request, from the image not home, so
// the request carries no leader and the read must succeed; afterwards the
// leader is home and out of the set.
func TestHomeWriteCrossingLeaderRead(t *testing.T) {
	holds := func(mu *sync.Mutex) bool {
		if mu.TryLock() {
			mu.Unlock()
			return false
		}
		return true
	}
	old := bytes.Repeat([]byte{1}, disk.SectorSize)
	for _, c := range []struct {
		name string
		// setup leaves the file "f" with its leader not home and returns
		// the writer and the lock that shows it is under way.
		setup func(t *testing.T, v *Volume, f *File) (move func() error, lock *sync.Mutex)
		cache int // Config.DataCachePages
		pages int // the file's size
	}{
		{name: "third-crossing", pages: 1, setup: func(t *testing.T, v *Volume, f *File) (func() error, *sync.Mutex) {
			addr, _ := f.e.LeaderAddr()
			l2 := extendStaged(t, v, f)
			return func() error {
				_, err := v.flushLeaders([]wal.PageImage{{Kind: wal.KindLeader, Target: uint64(addr), Data: l2}})
				return err
			}, &v.leaders.mu
		}},
		{name: "page-0-write", pages: 1, setup: func(t *testing.T, v *Volume, f *File) (func() error, *sync.Mutex) {
			extendStaged(t, v, f)
			h, err := v.Open("f", 0)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { return h.WritePages(0, bytes.Repeat([]byte{2}, disk.SectorSize)) }, &h.mu
		}},
		// 160 cache pages hold 80 sectors: the leader and the first 64
		// pages are held, and the rest is written at once.
		{name: "held-pass", pages: 100, cache: 160, setup: func(t *testing.T, v *Volume, f *File) (func() error, *sync.Mutex) {
			addr, _ := f.e.LeaderAddr()
			if img, _ := v.leaders.staged(addr); img != nil || !v.leaderNotHome(addr, nil) {
				t.Fatal("the create's leader is not held")
			}
			return v.Force, &v.hmu
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.GroupCommitInterval = time.Hour // only the explicit forces commit
			cfg.DataCachePages = c.cache
			v, d, _ := newTestVolumeWith(t, cfg)
			data := bytes.Repeat(old, c.pages)
			f, err := v.Create("f", data)
			if err != nil {
				t.Fatal(err)
			}
			addr, _ := f.e.LeaderAddr()
			move, lock := c.setup(t, v, f)
			g, err := v.Open("f", 0)
			if err != nil {
				t.Fatal(err)
			}
			crossed := make(chan error, 1)
			fired, carried := false, false
			d.SetOpObserver(func(e disk.OpEvent) {
				v.observeDiskOp(e)
				if e.Write || e.Addr+e.Sectors <= addr || e.Addr > addr+c.pages {
					return
				}
				carried = carried || e.Addr <= addr
				if fired {
					return
				}
				fired = true
				go func() { crossed <- move() }()
				for deadline := time.Now().Add(5 * time.Second); !holds(lock); {
					if time.Now().After(deadline) {
						t.Error("the writer never took its lock")
						break
					}
					time.Sleep(time.Millisecond)
				}
			})
			got, rerr := g.ReadPages(0, c.pages)
			d.SetOpObserver(v.observeDiskOp)
			if !fired {
				t.Fatal("the read went to the disk for none of the file's data")
			}
			if carried {
				t.Error("the read carried a leader that was not home")
			}
			if err := <-crossed; err != nil {
				t.Fatal(err)
			}
			if rerr != nil || !bytes.Equal(got, data[:len(got)]) || len(got) != len(data) {
				t.Fatalf("a read crossed by the leader's move failed: %v", rerr)
			}
			if v.leaderNotHome(addr, nil) {
				t.Fatal("the writer left the leader out of home")
			}
			home, err := d.ReadSectors(addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := verifyLeader(home, &g.e); err != nil {
				t.Fatalf("the leader went home stale: %v", err)
			}
		})
	}
}

// extendStaged forces the create of f, extends f by a page and forces the
// Extend, and returns the leader image the Extend staged — committed, and
// not home yet.
func extendStaged(t *testing.T, v *Volume, f *File) []byte {
	t.Helper()
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	addr, _ := f.e.LeaderAddr()
	if err := f.Extend(1); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	l2, _ := v.leaders.staged(addr)
	if l1, _ := v.d.ReadSectors(addr, 1); l2 == nil || bytes.Equal(l1, l2) {
		t.Fatal("the Extend left no new leader image staged")
	}
	return l2
}

// TestLeaderSetClearRules: a writer that put the image staged returned home
// clears the entry only while its generation is what staged returned — not
// after a newer image was staged, nor after a crossing wrote an older
// committed image over the one that went home — and drop clears it always.
func TestLeaderSetClearRules(t *testing.T) {
	v, _, _ := newTestVolume(t)
	const addr = 7 // the set never touches the sector but in flushLeaders
	l1, l2 := bytes.Repeat([]byte{1}, disk.SectorSize), bytes.Repeat([]byte{2}, disk.SectorSize)
	s := &v.leaders
	staged := func() bool { img, _ := s.staged(addr); return img != nil }

	s.stage(addr, l1)
	img, gen := s.staged(addr)
	if !bytes.Equal(img, l1) {
		t.Fatal("staged returned another image")
	}
	s.wentHome(addr, gen)
	if staged() {
		t.Fatal("wentHome with an unchanged generation kept the entry")
	}

	s.stage(addr, l1)
	_, gen = s.staged(addr)
	s.stage(addr, l2)
	s.wentHome(addr, gen)
	if img, _ := s.staged(addr); !bytes.Equal(img, l2) {
		t.Fatal("wentHome after a re-stage cleared the newer image")
	}

	// A data sector for the crossing's write to land on: the set decides
	// by the images alone.
	a, err := v.Create("x", bytes.Repeat([]byte{9}, disk.SectorSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	home, _ := a.e.LeaderAddr()
	s.drop(addr)
	s.stage(home, l2)
	_, gen = s.staged(home)
	if _, err := v.flushLeaders([]wal.PageImage{{Kind: wal.KindLeader, Target: uint64(home), Data: l1}}); err != nil {
		t.Fatal(err)
	}
	s.wentHome(home, gen)
	if img, _ := s.staged(home); !bytes.Equal(img, l2) {
		t.Fatal("wentHome after an older image was flushed over the entry cleared it")
	}
	if _, err := v.flushLeaders([]wal.PageImage{{Kind: wal.KindLeader, Target: uint64(home), Data: l2}}); err != nil {
		t.Fatal(err)
	}
	if img, _ := s.staged(home); img != nil {
		t.Fatal("flushing the staged image kept the entry")
	}

	s.stage(addr, l1)
	s.drop(addr)
	if staged() {
		t.Fatal("drop kept the entry")
	}
}
