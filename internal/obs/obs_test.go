package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 0, 1} // <=10, <=100, <=1000, overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 5122 {
		t.Fatalf("count/sum = %d/%d, want 5/5122", s.Count, s.Sum)
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d, want 1/5000", s.Min, s.Max)
	}
	if m := s.Mean(); m < 1024 || m > 1025 {
		t.Fatalf("mean = %v, want 1024.4", m)
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100 (median 11 is in the (10,100] bucket)", q)
	}
	if q := s.Quantile(1.0); q != 5000 {
		t.Fatalf("p100 = %d, want 5000 (max)", q)
	}
}

func TestHistSnapshotSub(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(5)
	before := h.Snapshot()
	h.Observe(20)
	h.Observe(7)
	win := h.Snapshot().Sub(before)
	if win.Count != 2 || win.Sum != 27 {
		t.Fatalf("window count/sum = %d/%d, want 2/27", win.Count, win.Sum)
	}
	if win.Counts[0] != 1 || win.Counts[1] != 1 {
		t.Fatalf("window counts = %v, want [1 1]", win.Counts)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DurationBuckets(time.Millisecond, time.Second)...)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveDuration(time.Duration(i) * time.Microsecond)
				_ = h.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestTracerDisabledDropsEvents(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Kind: EvDiskOp})
	if got := len(tr.Events()); got != 0 {
		t.Fatalf("disabled tracer recorded %d events", got)
	}
}

func TestTracerRingAndSink(t *testing.T) {
	tr := NewTracer(4)
	tr.Enable()
	var sunk []Event
	tr.SetSink(func(e Event) { sunk = append(sunk, e) })
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: EvOpSpan, A: int64(i)})
	}
	got := tr.Events()
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := int64(i + 2); e.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest-first order)", i, e.A, want)
		}
	}
	if len(sunk) != 6 {
		t.Fatalf("sink saw %d events, want all 6", len(sunk))
	}
	tr.Disable()
	tr.Emit(Event{})
	if len(sunk) != 6 || tr.Events()[3].A != 5 {
		t.Fatal("disabled tracer recorded an event")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvDiskOp, EvWALAppend, EvWALForce, EvCacheHit,
		EvCacheMiss, EvLockWait, EvScrub, EvOpSpan}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if (Event{Kind: EvOpSpan, Op: "open"}).String() == "" {
		t.Fatal("Event.String empty")
	}
}
