package core

import (
	"bytes"
	"fmt"
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
	v.lmu.Lock()
	_, pending := v.pendingLeaders[addr]
	v.lmu.Unlock()
	if !pending || !v.log.Logged(wal.KindLeader, uint64(addr)) {
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
	v.lmu.Lock()
	_, pending = v.pendingLeaders[addr]
	v.lmu.Unlock()
	if !pending {
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
// write of page 0 reads L2 from the pending table and puts it home with the
// page; a third crossing, which took the table's lock meanwhile, then writes
// L1 over it — the order a write-fault hook forces here. The write must not
// then drop L2 from the pending table: home holds L1, and once L2 commits,
// the crossing that hands it over must still find it pending and write it
// home, or the leader stays stale with no crash at all.
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
	v.lmu.Lock()
	l2 := v.pendingLeaders[addr]
	v.lmu.Unlock()
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
		for deadline := time.Now().Add(5 * time.Second); v.lmu.TryLock(); {
			v.lmu.Unlock()
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
