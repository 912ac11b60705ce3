package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// verifyAt runs Verify with the given pool width. The config knob is read
// at the top of each Verify call, so tests can sweep widths on one volume.
func verifyAt(t *testing.T, v *Volume, workers int) VerifyStats {
	t.Helper()
	v.cfg.CheckWorkers = workers
	st, err := v.Verify()
	if err != nil {
		t.Fatalf("Verify(workers=%d): %v", workers, err)
	}
	if st.Workers != workers && !(workers <= 1 && st.Workers == 1) {
		t.Fatalf("Verify reported Workers=%d, want %d", st.Workers, workers)
	}
	return st
}

// TestVerifyProblemsDeterministic is the golden test for the canonical
// problem order: several different problems planted on one volume must
// report grouped by entry in key order, with byte-identical output at
// every worker count.
func TestVerifyProblemsDeterministic(t *testing.T) {
	v, d, _ := newTestVolume(t)
	mk := func(name string) Entry {
		f, err := v.Create(name, payload(900, byte(len(name))))
		if err != nil {
			t.Fatal(err)
		}
		return f.Entry()
	}
	ea := mk("g/a") // VAM drift
	eb := mk("g/b") // smashed leader (silent corruption)
	ec := mk("g/c") // unreadable leader (damaged sector)
	mk("g/clean")   // no problem: must not appear
	// The faults are planted on the platter: the leaders must be home, not
	// held for the force.
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}

	v.VAM().MarkFree(int(ea.Runs[0].Start), 1)
	addrB, _ := eb.LeaderAddr()
	d.SmashSector(addrB, payload(512, 0x5A), nil)
	addrC, _ := ec.LeaderAddr()
	d.CorruptSectors(addrC, 1)

	// The canonical report: one problem per planted fault, grouped by
	// entry in key order (g/a, g/b, g/c).
	wantPrefix := []string{
		fmt.Sprintf("g/a!1: page %d owned but marked free", ea.Runs[0].Start),
		`core: "g/b"!1: leader page is not a leader`,
		"g/c!1: leader unreadable: ",
	}

	base := verifyAt(t, v, 1)
	if len(base.Problems) != len(wantPrefix) {
		t.Fatalf("problems = %v, want %d entries", base.Problems, len(wantPrefix))
	}
	for i, want := range wantPrefix {
		if !strings.HasPrefix(base.Problems[i], want) {
			t.Fatalf("problem[%d] = %q, want prefix %q", i, base.Problems[i], want)
		}
	}
	for _, workers := range []int{2, 8} {
		st := verifyAt(t, v, workers)
		if len(st.Problems) != len(base.Problems) {
			t.Fatalf("workers=%d: %d problems, want %d: %v", workers, len(st.Problems), len(base.Problems), st.Problems)
		}
		for i := range base.Problems {
			if st.Problems[i] != base.Problems[i] {
				t.Fatalf("workers=%d: problem[%d] = %q, sequential run said %q",
					workers, i, st.Problems[i], base.Problems[i])
			}
		}
		if st.Entries != base.Entries || st.Leaders != base.Leaders ||
			st.Symlinks != base.Symlinks || st.LeadersPending != base.LeadersPending {
			t.Fatalf("workers=%d: counts %+v != sequential %+v", workers, st, base)
		}
	}
}

// TestVerifyDuplicateOwnerDeterministic plants a page-ownership conflict
// (two entries claiming one page) and checks the same winner and the same
// report at every worker count: the owner table resolves ties by lowest
// entry index, which is key order, not scheduling order.
func TestVerifyDuplicateOwnerDeterministic(t *testing.T) {
	v, _, _ := newTestVolume(t)
	fa, err := v.Create("dup/a", payload(600, 1))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := v.Create("dup/b", payload(600, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite dup/b's entry so its first data page aliases dup/a's: the
	// direct name-table poke models a metadata bug, exactly what Verify
	// exists to catch.
	ea, eb := fa.Entry(), fb.Entry()
	eb.Runs[0].Start = ea.Runs[0].Start
	if err := v.nt.Put(entryKey(eb.Name, eb.Version), encodeEntry(&eb)); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}

	base := verifyAt(t, v, 1)
	found := false
	for _, p := range base.Problems {
		if strings.Contains(p, "also owned by dup/a!1") && strings.HasPrefix(p, "dup/b!1:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate ownership not pinned on the later entry: %v", base.Problems)
	}
	for _, workers := range []int{2, 8} {
		st := verifyAt(t, v, workers)
		if fmt.Sprint(st.Problems) != fmt.Sprint(base.Problems) {
			t.Fatalf("workers=%d: %v != sequential %v", workers, st.Problems, base.Problems)
		}
	}
}

// TestVerifyUnderDecay plants unreadable leaders and name-table decay and
// checks that a wide Verify reports the damage without panicking, and that
// the health budget is charged once per fault — not once per worker. The
// leader sweep is driven by a single reader in address order, so the
// charge is scheduling-independent by construction.
func TestVerifyUnderDecay(t *testing.T) {
	run := func(workers int) (VerifyStats, int) {
		v, d, _ := newTestVolume(t)
		var leaders []int
		for i := 0; i < 30; i++ {
			f, err := v.Create(fmt.Sprintf("dk/f%02d", i), payload(400+i*13, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			e := f.Entry()
			if addr, ok := e.LeaderAddr(); ok {
				leaders = append(leaders, addr)
			}
		}
		// Pre-planted damage only: live fault probabilities would consume
		// PRNG draws in scheduling order and break determinism. It goes on
		// the platter, so the leaders must be home, not held for the force.
		if err := v.Force(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(leaders); i += 5 {
			d.CorruptSectors(leaders[i], 1)
		}
		budget0 := v.Stats().Faults.ErrorBudget
		st := verifyAt(t, v, workers)
		return st, v.Stats().Faults.ErrorBudget - budget0
	}

	base, baseBudget := run(1)
	if len(base.Problems) != 6 {
		t.Fatalf("problems = %v, want one per corrupted leader", base.Problems)
	}
	for _, p := range base.Problems {
		if !strings.Contains(p, "leader unreadable") {
			t.Fatalf("unexpected problem %q", p)
		}
	}
	if baseBudget == 0 {
		t.Fatal("unreadable leaders charged nothing to the health budget")
	}
	for _, workers := range []int{2, 8} {
		st, budget := run(workers)
		if fmt.Sprint(st.Problems) != fmt.Sprint(base.Problems) {
			t.Fatalf("workers=%d: %v != sequential %v", workers, st.Problems, base.Problems)
		}
		if budget != baseBudget {
			t.Fatalf("workers=%d: health budget charged %d, sequential run charged %d", workers, budget, baseBudget)
		}
	}
}

// TestVerifyParallelWithReaders is the -race hammer: a wide Verify runs
// repeatedly while reader goroutines hammer the same files. Verify holds
// the monitor exclusively, so the interesting surface is its own worker
// pool racing over the owner table, the VAM lock, and the pending-leader
// map while readers pile onto the monitor boundary.
func TestVerifyParallelWithReaders(t *testing.T) {
	v, _, _ := newTestVolume(t)
	const files = 48
	for i := 0; i < files; i++ {
		if _, err := v.Create(fmt.Sprintf("rh/f%02d", i), payload(300+i*7, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Set the pool width before any reader starts: cfg is read-only once
	// the volume is live.
	v.cfg.CheckWorkers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f, err := v.Open(fmt.Sprintf("rh/f%02d", (g*13+i)%files), 0)
				if err != nil {
					continue
				}
				_, _ = f.ReadAll()
			}
		}(g)
	}
	for round := 0; round < 5; round++ {
		st, err := v.Verify()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(st.Problems) != 0 {
			t.Fatalf("round %d: problems on a healthy volume: %v", round, st.Problems)
		}
		if st.Entries != files {
			t.Fatalf("round %d: entries = %d, want %d", round, st.Entries, files)
		}
	}
	close(stop)
	wg.Wait()
}
