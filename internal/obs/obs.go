// Package obs is the low-overhead observability layer: atomic counters,
// gauges, and fixed-bucket histograms over simulated-time values, plus an
// optional structured event trace (see trace.go).
//
// Everything here is built for the hot path of a file system running on a
// virtual clock. Metrics never take a lock, never allocate after
// construction, and — critically — never advance the simulation clock, so
// instrumented and uninstrumented runs produce identical simulated-time
// results. The event trace is guarded by one atomic load when disabled.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram accumulates int64 observations into fixed buckets. Bounds are
// inclusive upper limits in ascending order; an observation larger than the
// last bound lands in the overflow bucket. All updates are atomic, so
// observers on the disk's device mutex and snapshot readers never contend.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // MaxInt64 until the first observation
	max    atomic.Int64
}

// NewHistogram returns a histogram over the given ascending bucket bounds.
func NewHistogram(bounds ...int64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.MaxInt64)
	return h
}

// DurationBuckets converts duration bounds to the histogram's int64
// (nanosecond) form.
func DurationBuckets(ds ...time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration as nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot returns a consistent-enough copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	if mn := h.min.Load(); mn != math.MaxInt64 {
		s.Min = mn
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Mean returns the average observed value, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from the
// bucket counts: the bound of the bucket where the quantile falls, or Max
// for the overflow bucket.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}

// Sub returns the window s - o for two snapshots of the same histogram
// (Min/Max keep s's values: extrema are not windowable).
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := s
	out.Counts = make([]int64, len(s.Counts))
	copy(out.Counts, s.Counts)
	for i := range o.Counts {
		if i < len(out.Counts) {
			out.Counts[i] -= o.Counts[i]
		}
	}
	out.Count -= o.Count
	out.Sum -= o.Sum
	return out
}
