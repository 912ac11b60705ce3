package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendersAcrossThirds hammers Append/WaitCommitted from many
// goroutines with a log small enough that the write path crosses thirds
// (and wraps) many times mid-run. It models a home store exactly the way
// internal/core does — FlushHook "writes home" what Due lists for the
// overwritten third — and then checks the invariant the flush hook depends
// on: every target's newest logged bytes survive, either still replayable
// from the log or flushed home. All hook state is touched without extra
// locking, which is itself an assertion (under -race) that the WAL
// serializes its callbacks behind the force path.
func TestConcurrentAppendersAcrossThirds(t *testing.T) {
	l, d, clk := newTestLog(t, Config{Interval: time.Millisecond})

	home := make(map[uint64][]byte) // images flushed home at crossings
	crossings := 0
	l.FlushHook = func(int) (int, error) {
		crossings++
		for _, im := range l.Due() {
			home[im.Target] = bytes.Clone(im.Data)
		}
		return len(l.Due()), nil
	}

	const workers = 8
	const perWorker = 50
	const targetsPerWorker = 6
	var (
		mu   sync.Mutex
		want = make(map[uint64][]byte) // newest staged bytes per target
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				target := uint64(w*targetsPerWorker + i%targetsPerWorker)
				fill := byte(w*31 + i)
				// Staging and recording must agree on which bytes are
				// newest for the target; serialize the pair so a
				// concurrent writer to a (shared-nothing here, but keep
				// the pattern honest) target cannot interleave.
				mu.Lock()
				im := img(KindNameTable, target, fill)
				cp := make([]byte, len(im.Data))
				copy(cp, im.Data)
				want[target] = cp
				seq, err := l.Append(im)
				mu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("w%d append: %w", w, err)
					return
				}
				if i%7 == 6 {
					if err := l.WaitCommitted(seq); err != nil {
						errs <- fmt.Errorf("w%d wait: %w", w, err)
						return
					}
					if got := l.Committed(); got < seq {
						errs <- fmt.Errorf("w%d: Committed()=%d after WaitCommitted(%d)", w, got, seq)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatalf("final force: %v", err)
	}
	if crossings == 0 {
		t.Fatal("log never crossed a third; shrink the log or write more")
	}

	// Every target's newest bytes must be recoverable: from the log replay
	// if its last record survives, else from the home store the flush hook
	// maintained.
	_, c, _ := reopen(t, d, clk, Config{Interval: time.Millisecond})
	for tgt, data := range want {
		got, ok := c[imageKey{KindNameTable, tgt}]
		where := "log"
		if !ok {
			got, ok = home[tgt]
			where = "home"
		}
		if !ok {
			t.Fatalf("target %d: newest image neither in log nor home", tgt)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("target %d: stale image recovered from %s", tgt, where)
		}
	}
}
