package parscan

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryChunkOnce checks the core contract: every chunk index
// executes exactly once, at any worker count, including counts that don't
// divide the chunk count and counts above it.
func TestPoolRunsEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, chunks := range []int{0, 1, 7, 64, 1000} {
			hits := make([]int32, chunks)
			st, err := Run(workers, chunks, func(w *Worker, c int) error {
				atomic.AddInt32(&hits[c], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d chunks=%d: %v", workers, chunks, err)
			}
			for c, n := range hits {
				if n != 1 {
					t.Fatalf("workers=%d chunks=%d: chunk %d ran %d times", workers, chunks, c, n)
				}
			}
			total := 0
			for _, w := range st.PerWorker {
				total += w.Chunks
			}
			if total != chunks {
				t.Fatalf("workers=%d chunks=%d: stats count %d chunks", workers, chunks, total)
			}
		}
	}
}

// TestPoolStealing forces an imbalanced load — one worker's interval is
// slow — and checks that other workers steal from it rather than idling.
func TestPoolStealing(t *testing.T) {
	const workers, chunks = 4, 64
	var slow sync.Mutex
	slow.Lock()
	var firstDone int32
	st, err := Run(workers, chunks, func(w *Worker, c int) error {
		if c == 0 {
			// Chunk 0 stalls whichever worker runs it until every other
			// chunk has completed. Without stealing the stalled worker's
			// remaining interval would never run, the gate would never
			// release, and the pool would hang — so mere completion
			// proves the other workers stole the stalled interval.
			slow.Lock() //nolint:staticcheck // released below, used as a gate
			return nil
		}
		if atomic.AddInt32(&firstDone, 1) == chunks-1 {
			slow.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steals() == 0 {
		t.Fatal("no steals despite a stalled worker interval")
	}
	ran := 0
	for _, w := range st.PerWorker {
		ran += w.Chunks
	}
	if ran != chunks {
		t.Fatalf("workers ran %d chunks, want %d", ran, chunks)
	}
}

// TestPoolErrorDeterministic checks that when several chunks fail, Wait
// reports the lowest-numbered failing chunk's error regardless of
// completion order.
func TestPoolErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		st, err := Run(8, 100, func(w *Worker, c int) error {
			if c%13 == 5 { // chunks 5, 18, 31, ...
				return fmt.Errorf("chunk %d failed", c)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 5 failed" {
			t.Fatalf("trial %d: got error %v, want the lowest failing chunk", trial, err)
		}
		_ = st
	}
}

// TestPoolErrorStopsWork checks that a failure prevents later chunks from
// being handed out: with one worker the failure is at chunk 0, so no
// other chunk may run.
func TestPoolErrorStopsWork(t *testing.T) {
	var ran int32
	boom := errors.New("boom")
	_, err := Run(1, 50, func(w *Worker, c int) error {
		atomic.AddInt32(&ran, 1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 1 {
		t.Fatalf("%d chunks ran after a chunk-0 failure on one worker", ran)
	}
}

// TestPoolAccounting checks Charge accumulates per worker and the stats
// helpers fold it correctly: TotalCPU is the same at any width, and
// BalancedCPU is TotalCPU at one worker and its rounded-up share at more.
func TestPoolAccounting(t *testing.T) {
	for _, tc := range []struct {
		workers  int
		balanced time.Duration
	}{{1, 30 * time.Millisecond}, {4, 7500 * time.Microsecond}, {7, 30*time.Millisecond/7 + 1}} {
		st, err := Run(tc.workers, 10, func(w *Worker, c int) error {
			w.Charge(3 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.TotalCPU(), 30*time.Millisecond; got != want {
			t.Fatalf("workers=%d: TotalCPU = %v, want %v", tc.workers, got, want)
		}
		if got := st.BalancedCPU(); got != tc.balanced {
			t.Fatalf("workers=%d: BalancedCPU = %v, want %v", tc.workers, got, tc.balanced)
		}
	}
}

// TestOwnerTableLowestWins checks the CAS-min tie-break: whatever order
// claims arrive in, the surviving owner is the lowest index, and losers
// learn the winner.
func TestOwnerTableLowestWins(t *testing.T) {
	tab := NewOwnerTable(1 << 16)
	if prev := tab.Claim(100, 7); prev != OwnerNone {
		t.Fatalf("first claim returned %d", prev)
	}
	if prev := tab.Claim(100, 3); prev != 7 {
		t.Fatalf("lower claim saw prev %d, want 7", prev)
	}
	if got := tab.Owner(100); got != 3 {
		t.Fatalf("owner = %d, want the lowest claimant 3", got)
	}
	if prev := tab.Claim(100, 9); prev != 3 {
		t.Fatalf("higher claim saw prev %d, want surviving 3", prev)
	}
	if got := tab.Owner(100); got != 3 {
		t.Fatalf("owner = %d after higher claim, want 3", got)
	}
	if got := tab.Owner(101); got != OwnerNone {
		t.Fatalf("unclaimed page owner = %d", got)
	}
	// Pages in a never-touched stripe read unclaimed without allocating.
	if got := tab.Owner(3 << ownerStripeShift); got != OwnerNone {
		t.Fatalf("untouched stripe owner = %d", got)
	}
}

// TestOwnerTableConcurrent hammers one table from many goroutines (run
// under -race by verify.sh): every page's final owner must be the lowest
// index that claimed it, independent of scheduling.
func TestOwnerTableConcurrent(t *testing.T) {
	const pages = 1 << 15
	const claimants = 8
	tab := NewOwnerTable(pages)
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each claimant claims every page g touches: page p is claimed
			// by owners p%claimants .. claimants-1, so the winner is p%claimants.
			for p := 0; p < pages; p++ {
				if g >= p%claimants {
					tab.Claim(p, int32(g))
				}
			}
		}(g)
	}
	wg.Wait()
	for p := 0; p < pages; p++ {
		if got, want := tab.Owner(p), int32(p%claimants); got != want {
			t.Fatalf("page %d owner = %d, want %d", p, got, want)
		}
	}
}
