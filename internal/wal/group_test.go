package wal

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// forceAside starts a Force on another goroutine and yields until it has had
// every chance to run: with a group open it is parked on the bracket by now,
// without one it has committed. (Forcing from the goroutine that holds the
// group would wait for itself — that is the design, see Begin.)
func forceAside(l *Log) <-chan error {
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		done <- l.Force()
	}()
	<-started
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	return done
}

// replayed crashes the device, reopens the log and reports which of the
// targets replay returns.
func replayed(t *testing.T, l *Log, targets ...uint64) map[uint64]bool {
	t.Helper()
	l.d.Halt()
	l.d.Revive()
	_, c, _ := reopen(t, l.d, l.clk, l.cfg)
	got := make(map[uint64]bool)
	for _, tg := range targets {
		if _, ok := c[imageKey{KindNameTable, tg}]; ok {
			got[tg] = true
		}
	}
	return got
}

// TestGroupForceSeesAllOrNone: a force that arrives between the two Appends
// of a group must not commit the first without the second.
func TestGroupForceSeesAllOrNone(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Hour})
	before := l.Committed()
	l.Begin()
	if _, err := l.Append(img(KindNameTable, 1, 0xA1)); err != nil {
		t.Fatal(err)
	}
	done := forceAside(l)
	if got := l.Committed(); got != before {
		t.Fatalf("force committed seq %d with the group still open (was %d)", got, before)
	}
	if _, err := l.Append(img(KindNameTable, 2, 0xB2)); err != nil {
		t.Fatal(err)
	}
	if err := l.End(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, l, 1, 2); !got[1] || !got[2] {
		t.Fatalf("replay after the force returned %v, want both images", got)
	}
}

// TestGroupCutByCrashLeavesNothing: the plug pulled while the group is open,
// with a force already waiting — replay returns neither image.
func TestGroupCutByCrashLeavesNothing(t *testing.T) {
	l, d, _ := newTestLog(t, Config{Interval: time.Hour})
	l.Begin()
	if _, err := l.Append(img(KindNameTable, 1, 0xA1)); err != nil {
		t.Fatal(err)
	}
	done := forceAside(l)
	d.Halt()
	if _, err := l.Append(img(KindNameTable, 2, 0xB2)); err != nil {
		t.Fatal(err)
	}
	if err := l.End(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("force on a halted device succeeded")
	}
	if got := replayed(t, l, 1, 2); len(got) != 0 {
		t.Fatalf("replay returned %v, want neither image", got)
	}
}

// TestGroupSynchronousForcesOnceAtEnd: with Interval 0 an Append inside a
// group does not force (it would wait for itself); End pays one force for
// the whole operation.
func TestGroupSynchronousForcesOnceAtEnd(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: 0})
	before := l.Committed()
	l.Begin()
	for tg := uint64(1); tg <= 2; tg++ {
		if _, err := l.Append(img(KindNameTable, tg, byte(tg))); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Forces != 0 || l.Committed() != before {
		t.Fatalf("forced inside the group: %d forces, committed %d (was %d)", st.Forces, l.Committed(), before)
	}
	if err := l.End(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Forces != 1 || st.Records != 1 {
		t.Fatalf("End paid %d forces, %d records, want one of each", st.Forces, st.Records)
	}
	// Outside a group the synchronous log still forces at every Append.
	if _, err := l.Append(img(KindNameTable, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Forces != 2 {
		t.Fatalf("ungrouped synchronous Append: %d forces, want 2", st.Forces)
	}
	if got := replayed(t, l, 1, 2, 3); len(got) != 3 {
		t.Fatalf("replay returned %v, want all three images", got)
	}
}

// TestGroupsSideBySide: two goroutines hold groups at once; a force waits
// for both and commits all four images together.
func TestGroupsSideBySide(t *testing.T) {
	l, _, _ := newTestLog(t, Config{Interval: time.Hour})
	before := l.Committed()
	l.Begin()
	if _, err := l.Append(img(KindNameTable, 1, 1)); err != nil {
		t.Fatal(err)
	}
	open, finish, ended := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		l.Begin() // would hang here if groups excluded each other
		_, err := l.Append(img(KindNameTable, 3, 3))
		close(open)
		<-finish
		if err == nil {
			_, err = l.Append(img(KindNameTable, 4, 4))
		}
		if e := l.End(); err == nil {
			err = e
		}
		ended <- err
	}()
	<-open
	done := forceAside(l)
	close(finish)
	if err := <-ended; err != nil {
		t.Fatal(err)
	}
	// The other group has ended; this one is still open.
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	if got := l.Committed(); got != before {
		t.Fatalf("force committed seq %d with a group still open (was %d)", got, before)
	}
	if _, err := l.Append(img(KindNameTable, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.End(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := replayed(t, l, 1, 2, 3, 4); len(got) != 4 {
		t.Fatalf("replay returned %v, want all four images", got)
	}
}

// TestAbortStopsForces: a group aborted part-way leaves its images pending
// and the log refusing to force them — a force already waiting for the group
// included — so replay returns the state before the operation.
func TestAbortStopsForces(t *testing.T) {
	for _, interval := range []time.Duration{time.Hour, 0} {
		l, _, _ := newTestLog(t, Config{Interval: interval})
		l.Begin()
		if _, err := l.Append(img(KindNameTable, 1, 1)); err != nil {
			t.Fatal(err)
		}
		done := forceAside(l)
		l.Abort()
		if err := <-done; !errors.Is(err, ErrAborted) {
			t.Fatalf("interval %v: waiting force = %v, want ErrAborted", interval, err)
		}
		if err := l.WaitCommitted(l.Seq()); !errors.Is(err, ErrAborted) {
			t.Fatalf("interval %v: WaitCommitted after Abort = %v, want ErrAborted", interval, err)
		}
		if got := replayed(t, l, 1); len(got) != 0 {
			t.Fatalf("interval %v: replay returned %v after an aborted group", interval, got)
		}
	}
}
