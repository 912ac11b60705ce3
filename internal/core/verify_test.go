package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/btree"
)

func TestVerifyCleanVolume(t *testing.T) {
	v, _, _ := newTestVolume(t)
	for i := 0; i < 40; i++ {
		if _, err := v.Create(fmt.Sprintf("vf/f%02d", i), payload(300+i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	v.CreateLink("vf/link", "[srv]<d>x!1")
	if _, err := v.Create("vf/empty", nil); err != nil {
		t.Fatal(err)
	}
	// A leader held for the force counts as not home yet too: force, so
	// that the empty file's is the one left.
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	st, err := v.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(st.Problems) != 0 {
		t.Fatalf("problems on a clean volume: %v", st.Problems)
	}
	if st.Entries != 42 || st.Symlinks != 1 || st.Leaders != 41 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LeadersPending != 1 {
		t.Fatalf("deferred leader of the empty file not seen: %+v", st)
	}
}

func TestVerifyDetectsSmashedLeader(t *testing.T) {
	v, d, _ := newTestVolume(t)
	f, err := v.Create("vf/target", payload(800, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil { // the leader home, not held
		t.Fatal(err)
	}
	e := f.Entry()
	addr, _ := e.LeaderAddr()
	d.SmashSector(addr, payload(512, 0x66), nil)
	st, err := v.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Problems) != 1 || !strings.Contains(st.Problems[0], "leader") {
		t.Fatalf("problems: %v", st.Problems)
	}
}

func TestVerifyDetectsVAMDrift(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("vf/drift", payload(800, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the hint map: mark the file's pages free while the entry
	// still owns them.
	e := f.Entry()
	v.VAM().MarkFree(int(e.Runs[0].Start), 1)
	st, err := v.Verify()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range st.Problems {
		if strings.Contains(p, "marked free") {
			found = true
		}
	}
	if !found {
		t.Fatalf("VAM drift not reported: %v", st.Problems)
	}
}

func TestVerifyAfterRecovery(t *testing.T) {
	v, d, _ := newTestVolume(t)
	for i := 0; i < 60; i++ {
		if _, err := v.Create(fmt.Sprintf("vf/r%02d", i), payload(200+i*3, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	v.Force()
	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := v2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Problems) != 0 {
		t.Fatalf("problems after recovery: %v", st.Problems)
	}
	if st.Entries != 60 {
		t.Fatalf("entries: %d", st.Entries)
	}
}

// TestMalformedNTPageIsCorrupt: a name-table leaf a logic bug wrote badly —
// a slot pointing past the page — under a good checksum, in both copies, is
// ErrCorrupt where the page enters the tree, for a lookup and for Verify,
// never a panic in the tree's walk.
func TestMalformedNTPageIsCorrupt(t *testing.T) {
	v, d, _ := newTestVolume(t)
	for i := 0; i < 5; i++ {
		if _, err := v.Create(fmt.Sprintf("mal/f%d", i), payload(300, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	smashed := false
	for id := uint32(1); id < 8 && !smashed; id++ {
		a, b := v.lay.ntPageAddrs(id)
		page, err := d.ReadSectors(a, NTPageSectors)
		if err != nil || !btree.IsLeaf(page) {
			continue
		}
		page[16], page[17] = 0xFD, 0x5F // slot 0 points 64863 bytes in
		stampCRC(page)
		for _, addr := range []int{a, b} {
			if err := d.WriteSectors(addr, page); err != nil {
				t.Fatal(err)
			}
		}
		smashed = true
	}
	if !smashed {
		t.Fatal("no leaf among the first name-table pages")
	}
	if _, err := v.Stat("mal/f0", 0); !errors.Is(err, btree.ErrCorrupt) {
		t.Fatalf("lookup through the malformed leaf = %v, want btree.ErrCorrupt", err)
	}
	if st, err := v.Verify(); !errors.Is(err, btree.ErrCorrupt) && len(st.Problems) == 0 {
		t.Fatalf("Verify over the malformed leaf: %v, no problems", err)
	}
}
