package wal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
)

// TestForceRetryAfterTransientWriteFault pins the force retry contract: a
// Force that fails on a transient write error must leave the staged records
// intact, so a subsequent Force succeeds and acks the same commit sequence.
func TestForceRetryAfterTransientWriteFault(t *testing.T) {
	// Retries disabled so the transient fault surfaces out of Force.
	l, d, _ := newTestLog(t, Config{Interval: time.Second, WriteRetries: -1})
	seq, err := l.Append(img(KindNameTable, 1, 0xAA), img(KindNameTable, 2, 0xBB))
	if err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(disk.FaultConfig{Seed: 1, TransientWrite: 1})
	if err := l.Force(); err == nil {
		t.Fatal("force succeeded under a 100% transient write fault")
	}
	if got := l.Committed(); got >= seq {
		t.Fatalf("failed force advanced committed to %d (batch %d)", got, seq)
	}
	if got := l.PendingImages(); got != 2 {
		t.Fatalf("failed force kept %d staged images, want 2", got)
	}
	d.InjectFaults(disk.FaultConfig{})
	if err := l.WaitCommitted(seq); err != nil {
		t.Fatalf("retry force: %v", err)
	}
	if got := l.Committed(); got < seq {
		t.Fatalf("committed %d after retry, want >= %d", got, seq)
	}
	// The retried batch must replay on recovery.
	_, c, _ := reopen(t, d, d.Clock(), Config{})
	for target, fill := range map[uint64]byte{1: 0xAA, 2: 0xBB} {
		got := c.last[imageKey{KindNameTable, target}]
		if got == nil || !bytes.Equal(got, bytes.Repeat([]byte{fill}, disk.SectorSize)) {
			t.Fatalf("image %d not recovered after retried force", target)
		}
	}
}

// TestForceRetryAfterMidBatchFailure fails the second record of a
// multi-record batch: none of the batch committed, so all of it goes back to
// pending, and the already-written unflagged record must compose with the
// retry so that every image of the batch recovers exactly once.
func TestForceRetryAfterMidBatchFailure(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: time.Second})
	const n = MaxImagesPerRecord + 21
	var seq uint64
	for i := 0; i < n; i++ {
		var err error
		if seq, err = l.Append(img(KindNameTable, uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let the first record's write through, then break the next write
	// operation before any of its sectors persist. The fault is ErrHalted
	// without an actual halt, so it is not retryable and surfaces directly.
	d.SetWriteFault(disk.FailAfterWrites(1, 0))
	if err := l.Force(); err == nil {
		t.Fatal("force succeeded with the second record broken")
	}
	if got := l.PendingImages(); got != n {
		t.Fatalf("restored %d images, want %d", got, n)
	}
	d.SetWriteFault(nil)
	d.Revive()
	if err := l.WaitCommitted(seq); err != nil {
		t.Fatalf("retry force: %v", err)
	}
	_, c, _ := reopen(t, d, d.Clock(), Config{})
	for i := 0; i < n; i++ {
		got := c.last[imageKey{KindNameTable, uint64(i + 1)}]
		if got == nil || got[0] != byte(i) {
			t.Fatalf("image %d lost or stale after mid-batch retry", i+1)
		}
	}
}

// TestForceAbsorbsWriteFaults runs a multi-force workload under moderate
// transient and bad-on-write probabilities: the bounded retry + remap policy
// must hide every fault from the caller, and the history must recover.
func TestForceAbsorbsWriteFaults(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: time.Second, WriteRetries: 16})
	var retriedTotal, remappedTotal int
	l.OnWriteFault = func(retried, remapped int, err error) {
		retriedTotal += retried
		remappedTotal += remapped
		if err != nil {
			t.Errorf("log write escalated: %v", err)
		}
	}
	d.InjectFaults(disk.FaultConfig{Seed: faultSeedWAL, TransientWrite: 0.05, BadOnWrite: 0.01})
	for pass := 0; pass < 30; pass++ {
		if _, err := l.Append(img(KindNameTable, uint64(pass%7+1), byte(pass))); err != nil {
			t.Fatal(err)
		}
		if err := l.Force(); err != nil {
			t.Fatalf("force %d under fault injection: %v", pass, err)
		}
	}
	if retriedTotal == 0 && remappedTotal == 0 {
		t.Fatal("fault path never exercised at these probabilities")
	}
	d.ClearFaults()
	_, c, _ := reopen(t, d, d.Clock(), Config{})
	if len(c.last) == 0 {
		t.Fatal("nothing recovered after faulted workload")
	}
}

// faultSeedWAL keeps the probabilistic WAL fault tests deterministic.
const faultSeedWAL = 42

// TestDataHookRunsBeforeTheBarrier pins where a force hands the client its
// data writes: only a force that writes records calls DataHook, after the
// capture — so the hook sees what the batch's operations left it — and
// before the data barrier and the first record; a hook that fails fails the
// force with the batch restored, and the next force calls it again.
func TestDataHookRunsBeforeTheBarrier(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: time.Second})
	d.EnableWriteBack()
	var calls []int // the synced epoch at each call
	fail := false
	l.DataHook = func() error {
		calls = append(calls, d.SyncedEpoch())
		if l.PendingImages() != 0 {
			t.Error("DataHook ran before the capture")
		}
		if fail {
			return errHook
		}
		return nil
	}
	if err := l.Force(); err != nil || len(calls) != 0 {
		t.Fatalf("an empty force called DataHook %d times (%v)", len(calls), err)
	}
	seq, err := l.Append(img(KindNameTable, 1, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := l.Force(); err != errHook {
		t.Fatalf("force with a failing DataHook = %v, want its error", err)
	}
	if l.Committed() >= seq || l.PendingImages() != 1 {
		t.Fatalf("the failed force committed %d (batch %d) and kept %d images", l.Committed(), seq, l.PendingImages())
	}
	fail = false
	records := l.Stats().Records
	if err := l.WaitCommitted(seq); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[1] != calls[0] {
		t.Fatalf("DataHook calls at synced epochs %v; want two, each before the force's barrier", calls)
	}
	if l.Stats().Records != records+1 || d.SyncedEpoch() <= calls[1] {
		t.Fatal("the retried force wrote no record, or no barrier after its hook")
	}
}

var errHook = errors.New("hook failed")
