package intentq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestOrderedApply(t *testing.T) {
	clk := sim.NewVirtualClock()
	var mu sync.Mutex
	var got []int
	q := New(clk, Config{Apply: func(op any) error {
		mu.Lock()
		got = append(got, op.(int))
		mu.Unlock()
		return nil
	}})
	defer q.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if seq, _ := q.Enqueue(i, fmt.Sprintf("f%03d", i%7)); seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := q.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("applied %d intents, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("apply order broken at %d: got %d", i, v)
		}
	}
	if q.Applied() != n || q.Enqueued() != n {
		t.Fatalf("Applied=%d Enqueued=%d, want %d", q.Applied(), q.Enqueued(), n)
	}
	if q.Depth() != 0 {
		t.Fatalf("Depth = %d after drain", q.Depth())
	}
}

func TestWaitNameBlocksOnPendingIntent(t *testing.T) {
	clk := sim.NewVirtualClock()
	release := make(chan struct{})
	q := New(clk, Config{Apply: func(op any) error {
		<-release
		return nil
	}})
	defer q.Close()

	q.Enqueue("op", "dir/a")
	q.Enqueue("op", "dir/b")

	done := make(chan struct{})
	go func() {
		if err := q.WaitName("dir/a"); err != nil {
			t.Errorf("WaitName: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitName returned while the intent was still pending")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-done

	// An unrelated name never blocks.
	if err := q.WaitName("unrelated"); err != nil {
		t.Fatalf("WaitName(unrelated): %v", err)
	}
	if q.ReaderWaits() == 0 {
		t.Fatal("blocked WaitName not counted in ReaderWaits")
	}
}

func TestWaitPrefixCoversDirectoryAncestors(t *testing.T) {
	clk := sim.NewVirtualClock()
	release := make(chan struct{})
	q := New(clk, Config{Apply: func(op any) error {
		<-release
		return nil
	}})
	defer q.Close()

	q.Enqueue("op", "proj/src/main.go")

	// A scan of "proj/src/ma" must see the pending create: its
	// directory-aligned ancestor is "proj/src", which the intent counts
	// under.
	done := make(chan struct{})
	go func() {
		q.WaitPrefix("proj/src/ma")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitPrefix returned while a matching intent was pending")
	case <-time.After(20 * time.Millisecond):
	}

	// A root-level scan must also wait (every intent counts under "").
	rootDone := make(chan struct{})
	go func() {
		q.WaitPrefix("")
		close(rootDone)
	}()
	select {
	case <-rootDone:
		t.Fatal("root WaitPrefix returned while an intent was pending")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	<-done
	<-rootDone
}

func TestStickyError(t *testing.T) {
	clk := sim.NewVirtualClock()
	boom := errors.New("boom")
	var applied atomic.Int64
	q := New(clk, Config{Apply: func(op any) error {
		if op.(int) == 1 {
			return boom
		}
		applied.Add(1)
		return nil
	}})
	defer q.Close()

	q.Enqueue(0, "a")
	q.Enqueue(1, "b")
	q.Enqueue(2, "c")
	if err := q.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want sticky %v", err, boom)
	}
	if err := q.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
	// Intent 2 must have been skipped, not executed, after the failure.
	if got := applied.Load(); got != 1 {
		t.Fatalf("applied %d intents after failure, want 1 (the pre-failure one)", got)
	}
	// The queue still marks everything applied so waiters are released.
	if q.Applied() != 3 {
		t.Fatalf("Applied = %d, want 3", q.Applied())
	}
}

func TestSuspendFreezesQueue(t *testing.T) {
	clk := sim.NewVirtualClock()
	var applied atomic.Int64
	q := New(clk, Config{Apply: func(op any) error {
		applied.Add(1)
		return nil
	}})
	defer q.Close()

	q.Enqueue(0, "a")
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	q.Suspend()
	for i := 0; i < 10; i++ {
		// Enqueue reports the depth it saw, the new intent counted.
		if _, d := q.Enqueue(i, "b"); d != i+1 {
			t.Fatalf("Enqueue %d saw depth %d while suspended, want %d", i, d, i+1)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := applied.Load(); got != 1 {
		t.Fatalf("applier ran %d intents while suspended, want 1", got)
	}
	if d := q.Depth(); d != 10 {
		t.Fatalf("Depth = %d while suspended, want 10", d)
	}
	q.Resume()
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := applied.Load(); got != 11 {
		t.Fatalf("applied = %d after resume, want 11", got)
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	clk := sim.NewVirtualClock()
	block := make(chan struct{})
	q := New(clk, Config{Apply: func(op any) error {
		<-block
		return nil
	}})
	q.Enqueue(0, "a")
	q.Enqueue(1, "a")

	errs := make(chan error, 2)
	go func() { errs <- q.WaitApplied(2) }()
	go func() { errs <- q.WaitName("a") }()
	time.Sleep(10 * time.Millisecond)
	close(block) // let the in-flight apply finish so Close can join
	q.Close()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) && err != nil {
			t.Fatalf("waiter error = %v, want ErrClosed or nil", err)
		}
	}
	// Enqueue after close is rejected.
	if seq, _ := q.Enqueue(9, "z"); seq != 0 {
		t.Fatalf("Enqueue after Close = %d, want 0", seq)
	}
}

func TestBackpressureAtMaxDepth(t *testing.T) {
	clk := sim.NewVirtualClock()
	release := make(chan struct{})
	q := New(clk, Config{MaxDepth: 4, Apply: func(op any) error {
		<-release
		return nil
	}})
	defer q.Close()

	for i := 0; i < 4; i++ {
		q.Enqueue(i, "a")
	}
	blocked := make(chan struct{})
	go func() {
		q.Enqueue(4, "a")
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("Enqueue did not block at MaxDepth")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-blocked
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if q.MaxDepthSeen() < 4 {
		t.Fatalf("MaxDepthSeen = %d, want >= 4", q.MaxDepthSeen())
	}
}

func TestLockNamesStripesExclude(t *testing.T) {
	clk := sim.NewVirtualClock()
	q := New(clk, Config{Apply: func(op any) error { return nil }})
	defer q.Close()

	unlock := q.LockNames("x", "y", "x") // duplicate stripe must not deadlock
	acquired := make(chan struct{})
	go func() {
		u := q.LockNames("x")
		u()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second LockNames(x) succeeded while stripe was held")
	case <-time.After(20 * time.Millisecond):
	}
	unlock()
	<-acquired
}

// TestWaitNoSpuriousCloseDuringOnWait pins the notifyWait window: OnWait
// drops q.mu, and Wait* callers (Open/Stat) do not hold the name stripe, so
// a concurrent Enqueue on the same key can make its pending count nonzero
// again before the waiter returns. That must never be reported as ErrClosed
// on a live queue.
func TestWaitNoSpuriousCloseDuringOnWait(t *testing.T) {
	clk := sim.NewVirtualClock()
	q := New(clk, Config{
		Apply: func(op any) error { return nil },
		// Widen the unlocked window so a racing Enqueue lands inside it.
		OnWait: func(kind, key string) { time.Sleep(50 * time.Microsecond) },
	})
	defer q.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					q.Enqueue("op", "hot")
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				if err := q.WaitName("hot"); err != nil {
					t.Errorf("WaitName on a live queue: %v", err)
					return
				}
				if err := q.WaitPrefix("hot"); err != nil {
					t.Errorf("WaitPrefix on a live queue: %v", err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if err := q.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestConcurrentEnqueueDrainRace(t *testing.T) {
	clk := sim.NewVirtualClock()
	var applied atomic.Int64
	q := New(clk, Config{MaxDepth: 32, Apply: func(op any) error {
		applied.Add(1)
		return nil
	}})
	defer q.Close()

	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("w%d/f%d", w, i%5)
				unlock := q.LockNames(name)
				q.Enqueue(i, name)
				unlock()
				if i%7 == 0 {
					if err := q.WaitName(name); err != nil {
						t.Errorf("WaitName: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := applied.Load(); got != workers*per {
		t.Fatalf("applied = %d, want %d", got, workers*per)
	}
}

// TestFatalDrainReleasesParkedWaiters: a WaitName/WaitPrefix caller already
// parked when a fatal apply error drains the queue must wake and return nil
// (readers serve the pre-intent state). The fatal drain replaces the count
// maps, so a waiter looping on a stale map reference would sleep forever —
// the exact hang a 10k-client soak produced.
func TestFatalDrainReleasesParkedWaiters(t *testing.T) {
	clk := sim.NewVirtualClock()
	boom := errors.New("boom")
	inApply := make(chan struct{})
	release := make(chan struct{})
	q := New(clk, Config{Apply: func(op any) error {
		close(inApply)
		<-release
		return boom
	}})
	defer q.Close()

	q.Enqueue("op", "dir/f")
	<-inApply // the applier is inside the intent that will go fatal

	type res struct{ err error }
	name := make(chan res, 1)
	prefix := make(chan res, 1)
	go func() { name <- res{q.WaitName("dir/f")} }()
	go func() { prefix <- res{q.WaitPrefix("dir/")} }()
	// Give both waiters time to park before the fatal drain swaps the maps
	// (ReaderWaits counts only completed waits, so it cannot be polled here).
	time.Sleep(50 * time.Millisecond)
	close(release)

	for i, ch := range []chan res{name, prefix} {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("waiter %d woke with %v, want nil (pre-intent state)", i, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d still parked after the fatal drain", i)
		}
	}
	if err := q.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

// TestWaitAppliedFollowsOnApplied: an intent counts as applied only after
// its OnApplied callback has returned, so a waiter released by it (core's
// DrainIntents) reads the callback's sample. The callback blocks; the waiter
// must stay blocked with it, and the callback sees the sequence and depth
// the queue will publish.
func TestWaitAppliedFollowsOnApplied(t *testing.T) {
	clk := sim.NewVirtualClock()
	entered := make(chan struct{})
	release := make(chan struct{})
	var gotSeq uint64
	gotDepth := -1
	q := New(clk, Config{
		Apply: func(op any) error { return nil },
		OnApplied: func(op any, seq uint64, lag time.Duration, depth int) {
			gotSeq, gotDepth = seq, depth
			close(entered)
			<-release
		},
	})
	defer q.Close()
	var unblock sync.Once
	free := func() { unblock.Do(func() { close(release) }) }
	defer free() // before Close, which waits for the applier

	seq, _ := q.Enqueue("op", "f")
	done := make(chan error, 1)
	go func() { done <- q.WaitApplied(seq) }()
	<-entered
	select {
	case <-done:
		t.Fatal("WaitApplied returned while OnApplied was still running")
	case <-time.After(20 * time.Millisecond):
	}
	if q.Applied() != 0 {
		t.Fatalf("Applied = %d while OnApplied runs, want 0", q.Applied())
	}
	free()
	if err := <-done; err != nil {
		t.Fatalf("WaitApplied: %v", err)
	}
	if gotSeq != seq || gotDepth != 0 {
		t.Fatalf("OnApplied saw seq %d depth %d, want %d and 0", gotSeq, gotDepth, seq)
	}
}
