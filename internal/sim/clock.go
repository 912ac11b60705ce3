// Package sim provides the deterministic simulation substrate shared by the
// disk simulator and the file systems built on it: a virtual clock that
// advances only when simulated work is performed, CPU cost accounting, and a
// seeded random source.
//
// All timing results in the reproduction (Tables 2 and 5 of the paper, the
// recovery times, the analytical-model validation) are measured against a
// Clock. VirtualClock is the only implementation, so every benchmark is
// bit-for-bit reproducible; group commit is driven at operation boundaries
// (MaybeForce, Tick), not by a wall-clock ticker.
package sim

import (
	"sync/atomic"
	"time"
)

// Clock is the time source for the simulation. Durations are measured from
// an arbitrary epoch (boot of the simulated machine).
type Clock interface {
	// Now returns the current simulated time since the epoch.
	Now() time.Duration
	// Advance moves simulated time forward by d.
	Advance(d time.Duration)
}

// VirtualClock is a deterministic Clock. It never advances on its own; the
// disk simulator and the CPU cost model advance it explicitly. The counter
// is lock-free so that many goroutines charging time concurrently do not
// serialize on a clock mutex.
type VirtualClock struct {
	now atomic.Int64 // nanoseconds since the epoch
}

// NewVirtualClock returns a VirtualClock positioned at the epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now implements Clock.
func (c *VirtualClock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance implements Clock. Negative durations are ignored so that callers
// computing deltas do not need to guard against rounding.
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.now.Add(int64(d))
}

// Set positions the clock at an absolute simulated time. It is intended for
// tests; time never moves backward.
func (c *VirtualClock) Set(t time.Duration) {
	for {
		cur := c.now.Load()
		if int64(t) <= cur || c.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}
