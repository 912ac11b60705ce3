package intentq

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestFatalErrorDrainsWithoutPoisoning pins the graceful-degradation
// contract: a fatal apply error fails the in-flight waiters for the dropped
// sequences, drains the queue deterministically, refuses further Enqueue —
// and leaves WaitName/WaitPrefix (the read path) returning nil.
func TestFatalErrorDrainsWithoutPoisoning(t *testing.T) {
	clk := sim.NewVirtualClock()
	boom := errors.New("boom")
	var fatal atomic.Int64
	var fatalErr error
	q := New(clk, Config{
		Apply: func(op any) error {
			if op.(int) == 1 {
				return boom
			}
			return nil
		},
		OnFatal: func(err error) {
			fatal.Add(1)
			fatalErr = err
		},
	})
	defer q.Close()

	q.Suspend()
	s0, _ := q.Enqueue(0, "ok")
	s1, _ := q.Enqueue(1, "bad")
	s2, _ := q.Enqueue(2, "dropped")
	q.Resume()

	if err := q.WaitApplied(s0); err != nil {
		t.Fatalf("WaitApplied(pre-failure) = %v, want nil", err)
	}
	if err := q.WaitApplied(s1); !errors.Is(err, boom) {
		t.Fatalf("WaitApplied(failed) = %v, want %v", err, boom)
	}
	if err := q.WaitApplied(s2); !errors.Is(err, boom) {
		t.Fatalf("WaitApplied(dropped) = %v, want %v", err, boom)
	}
	if got := q.FailedFrom(); got != s1 {
		t.Fatalf("FailedFrom = %d, want %d", got, s1)
	}
	if got := fatal.Load(); got != 1 {
		t.Fatalf("OnFatal fired %d times, want 1", got)
	}
	if !errors.Is(fatalErr, boom) {
		t.Fatalf("OnFatal error = %v, want %v", fatalErr, boom)
	}
	// The read path must not be poisoned: counts are drained, waits pass.
	if err := q.WaitName("dropped"); err != nil {
		t.Fatalf("WaitName after fatal drain = %v, want nil", err)
	}
	if err := q.WaitPrefix(""); err != nil {
		t.Fatalf("WaitPrefix after fatal drain = %v, want nil", err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth = %d after fatal drain, want 0", d)
	}
	// New work is refused, not silently dropped into a dead queue.
	if seq, _ := q.Enqueue(3, "late"); seq != 0 {
		t.Fatalf("Enqueue after fatal = %d, want 0", seq)
	}
}

// TestFatalReleasesBackpressuredEnqueue: a writer blocked at MaxDepth must
// wake (and be refused) when a fatal drain empties the queue, instead of
// deadlocking on a parked applier.
func TestFatalReleasesBackpressuredEnqueue(t *testing.T) {
	clk := sim.NewVirtualClock()
	gate := make(chan struct{})
	q := New(clk, Config{
		MaxDepth: 2,
		Apply: func(op any) error {
			<-gate
			return errors.New("boom")
		},
	})
	defer q.Close()

	q.Enqueue(0, "a")
	q.Enqueue(1, "b")
	got := make(chan uint64, 1)
	go func() {
		seq, _ := q.Enqueue(2, "c") // blocks at the cap
		got <- seq
	}()
	select {
	case seq := <-got:
		t.Fatalf("Enqueue returned %d while the queue was full", seq)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // first apply fails → fatal drain
	select {
	case seq := <-got:
		// Either verdict is sound: refused after the drain (0), or it won
		// the race and was enqueued just before the failure — in which
		// case the drain dropped it and WaitApplied reports that.
		if seq != 0 {
			if err := q.WaitApplied(seq); err == nil {
				t.Fatalf("Enqueue=%d succeeded and applied after fatal", seq)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue still blocked after the fatal drain")
	}
}

// TestCloseRacesSuspendResume hammers Close against Suspend/Resume cycles
// and parked waiters: no deadlock, and every released waiter observes
// ErrClosed (or success), never a hang. Run with -race.
func TestCloseRacesSuspendResume(t *testing.T) {
	for round := 0; round < 50; round++ {
		clk := sim.NewVirtualClock()
		q := New(clk, Config{Apply: func(op any) error { return nil }})

		var wg sync.WaitGroup
		// Churn: suspend/resume cycles racing the applier and Close.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q.Suspend()
				q.Resume()
			}
		}()
		// Writers keep the queue non-empty.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q.Enqueue(i, "f")
			}
		}()
		// Waiters park on names and sequences; after Close they must all
		// return — ErrClosed when the condition was never met, nil when
		// the applier got there first.
		waiters := make(chan error, 8)
		for w := 0; w < 4; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				waiters <- q.WaitName("f")
			}()
			go func() {
				defer wg.Done()
				waiters <- q.WaitApplied(20)
			}()
		}
		q.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: deadlock between Close and Suspend/Resume/waiters", round)
		}
		for i := 0; i < 8; i++ {
			if err := <-waiters; err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: waiter returned %v, want nil or ErrClosed", round, err)
			}
		}
	}
}
