package wal

import (
	"testing"
	"time"
)

// TestAdaptiveDeadlineTracksLoad drives the controller through its three
// regimes: cold (ceiling), busy (short deadline, never under Floor), idle
// again (decay back toward the ceiling).
func TestAdaptiveDeadlineTracksLoad(t *testing.T) {
	cfg := Config{Interval: 500 * time.Millisecond, Adaptive: true}
	l, _, clk := newTestLog(t, cfg)

	// Cold log: no staging samples yet, deadline sits at the ceiling.
	if d := l.Deadline(); d != cfg.Interval {
		t.Fatalf("cold deadline = %v, want ceiling %v", d, cfg.Interval)
	}

	// Busy: one image per simulated millisecond. The deadline should fall
	// to ~ TargetImages * gap = 16ms, far below the ceiling.
	for i := 0; i < 64; i++ {
		clk.Advance(time.Millisecond)
		if _, err := l.Append(img(KindNameTable, uint64(i%5), byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	busy := l.Deadline()
	if busy >= cfg.Interval/4 {
		t.Fatalf("busy deadline = %v, want well below ceiling %v", busy, cfg.Interval)
	}
	if busy < Floor {
		t.Fatalf("busy deadline = %v below floor %v", busy, Floor)
	}

	// Idle: images arrive a full second apart; the EWMA pulls the deadline
	// back up until the ceiling clamps it.
	for i := 0; i < 32; i++ {
		clk.Advance(time.Second)
		if _, err := l.Append(img(KindNameTable, 1, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := l.Deadline(); d != cfg.Interval {
		t.Fatalf("idle deadline = %v, want ceiling %v", d, cfg.Interval)
	}
}

// TestAdaptiveMaybeForceFiresEarly checks that in adaptive mode MaybeForce
// fires once the (short) adaptive deadline elapses, well before the fixed
// interval would have, and that a full record's worth of pending images
// forces immediately regardless of elapsed time.
func TestAdaptiveMaybeForceFiresEarly(t *testing.T) {
	cfg := Config{Interval: 500 * time.Millisecond, Adaptive: true}
	l, _, clk := newTestLog(t, cfg)

	// Train the rate estimate: one image per ms → deadline ≈ TargetImages ms.
	for i := 0; i < 32; i++ {
		clk.Advance(time.Millisecond)
		if _, err := l.Append(img(KindNameTable, uint64(i%3), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	forces := l.Stats().Forces

	// Stage one image and advance just past the adaptive deadline (but
	// far under the 500 ms ceiling): MaybeForce must fire.
	if _, err := l.Append(img(KindNameTable, 9, 0xAA)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(l.Deadline() + time.Millisecond)
	if err := l.MaybeForce(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != forces+1 {
		t.Fatalf("MaybeForce after adaptive deadline: forces = %d, want %d", got, forces+1)
	}

	// Capacity trigger: a full record's worth pending forces with no time
	// elapsed at all.
	forces = l.Stats().Forces
	for i := 0; i < MaxImagesPerRecord; i++ {
		if _, err := l.Append(img(KindNameTable, uint64(100+i), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.MaybeForce(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != forces+1 {
		t.Fatalf("MaybeForce at record capacity: forces = %d, want %d", got, forces+1)
	}
}

// TestFixedModeDeadlineUnchanged pins the non-adaptive behaviour: Deadline
// reports the configured interval (or 0 in synchronous mode) and MaybeForce
// still waits for the full fixed interval.
func TestFixedModeDeadlineUnchanged(t *testing.T) {
	l, _, clk := newTestLog(t, Config{Interval: 500 * time.Millisecond})
	if d := l.Deadline(); d != 500*time.Millisecond {
		t.Fatalf("fixed Deadline = %v, want 500ms", d)
	}
	if _, err := l.Append(img(KindNameTable, 1, 1)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(400 * time.Millisecond)
	if err := l.MaybeForce(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 0 {
		t.Fatalf("fixed-mode MaybeForce fired early: forces = %d", got)
	}
	clk.Advance(200 * time.Millisecond)
	if err := l.MaybeForce(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Fatalf("fixed-mode MaybeForce at interval: forces = %d, want 1", got)
	}

	lSync, _, _ := newTestLog(t, Config{Interval: 0, Adaptive: true})
	if d := lSync.Deadline(); d != 0 {
		t.Fatalf("synchronous Deadline = %v, want 0 (Synchronous wins over Adaptive)", d)
	}
}
