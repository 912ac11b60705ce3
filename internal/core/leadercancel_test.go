package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
)

// TestDeletedLeaderWrittenHomeUntilCommit: a file's deferred leader write
// stays pending until the file's deletion commits. An empty file's leader is
// logged once, at its create; Touches re-log its name-table page into the
// next two thirds, but not the leader. Then the file is deleted and padding
// creates fill the same batch past the end of the third, so its force enters
// the third holding the leader's only logged image — whose flush must still
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
	third, pending := v.leaderThird[addr]
	v.lmu.Unlock()
	if !pending {
		t.Fatal("the empty file's leader went home at its create")
	}
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

	if err := v.Delete("victim", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := v.Create(fmt.Sprintf("pad/%03d", i), nil); err != nil {
			t.Fatal(err)
		}
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
