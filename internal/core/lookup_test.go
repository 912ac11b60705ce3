package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/sim"
)

// countingPager counts the tree's reads of one page: the root, where every
// descent starts.
type countingPager struct {
	btree.Pager
	mu    sync.Mutex
	root  uint32
	reads int
}

func (p *countingPager) Read(id uint32) ([]byte, error) {
	p.mu.Lock()
	if id == p.root {
		p.reads++
	}
	p.mu.Unlock()
	return p.Pager.Read(id)
}

// descents returns the root reads since the last call.
func (p *countingPager) descents() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.reads
	p.reads = 0
	return n
}

// firstRead records the first page a tree reads: a lookup's is the root.
type firstRead struct {
	btree.Pager
	first *uint32
}

func (p firstRead) Read(id uint32) ([]byte, error) {
	if *p.first == 0 {
		*p.first = id
	}
	return p.Pager.Read(id)
}

// TestNewestLookupIsOneWalk: a call that names the newest version of a file
// looks it up in one walk of the name table — one descent from the root,
// which scans the name's versions and decodes the newest from the value it
// found — and is charged one lookup for it, CostBTreeOp, as a call that names
// its version is. Stat, Open, Delete and SetKeep of the newest version each
// descend once and charge the caller exactly CostSyscall + CostBTreeOp; a
// Create, whose walk also yields the keep count and the versions it trims,
// the same plus CostFileCreate. (The calls run on an asynchronous volume with
// the applier parked, so the B-tree updates they hand off are not theirs.)
func TestNewestLookupIsOneWalk(t *testing.T) {
	cfg := testConfig()
	cfg.AsyncApply = true
	cfg.GroupCommitInterval = time.Hour // no force inside a call
	v, _, _ := newTestVolumeWith(t, cfg)
	for i := 0; i < 200; i++ {
		if _, err := v.Create(fmt.Sprintf("l/f%03d", i), payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Create("l/multi", payload(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.SetKeep("l/multi", 2); err != nil {
		t.Fatal(err)
	}
	if err := v.DrainIntents(); err != nil {
		t.Fatal(err)
	}
	if v.nt.Height() < 2 {
		t.Fatalf("tree height %d: a descent is no different from a leaf scan", v.nt.Height())
	}
	// The same pages under a tree that counts its descents.
	var root uint32
	probe, err := btree.Open(firstRead{v.nt.Pager(), &root})
	if err != nil {
		t.Fatal(err)
	}
	root = 0
	if _, err := probe.Get([]byte("l/")); err != nil && !errors.Is(err, btree.ErrNotFound) || root == 0 {
		t.Fatalf("no root found: %v", err)
	}
	cp := &countingPager{Pager: v.nt.Pager(), root: root}
	if v.nt, err = btree.Open(cp); err != nil {
		t.Fatal(err)
	}
	lookup := sim.CostSyscall + sim.CostBTreeOp
	for _, op := range []struct {
		name string
		fn   func() error
		cpu  time.Duration
	}{
		{"Stat newest", func() error { _, err := v.Stat("l/multi", 0); return err }, lookup},
		{"Stat of a named version", func() error { _, err := v.Stat("l/multi", 2); return err }, lookup},
		{"Open newest", func() error { _, err := v.Open("l/f010", 0); return err }, lookup},
		{"Delete newest", func() error { return v.Delete("l/f011", 0) }, lookup},
		{"SetKeep", func() error { return v.SetKeep("l/f012", 1) }, lookup},
		{"Create over a keep count", func() error { _, err := v.Create("l/multi", nil); return err }, lookup + sim.CostFileCreate},
	} {
		v.q.Suspend()
		cp.descents()
		busy := v.cpu.Busy()
		err := op.fn()
		cpu, walks := v.cpu.Busy()-busy, cp.descents()
		v.q.Resume()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if walks != 1 || cpu != op.cpu {
			t.Errorf("%s: %d descents, CPU %v; want 1, %v", op.name, walks, cpu, op.cpu)
		}
		if err := v.DrainIntents(); err != nil {
			t.Fatal(err)
		}
	}
	// The create's one walk found what its keep count trims: of four
	// versions, the two newest remain.
	if got := versions(t, v, "l/multi"); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("versions after the create under keep 2: %v, want [3 4]", got)
	}
}
