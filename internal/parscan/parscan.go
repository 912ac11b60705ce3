// Package parscan is the shared parallel-scan infrastructure for the
// volume's check-and-repair paths (Verify, the salvage sweep, Scrub) —
// the pFSCK idea applied to FSD: a whole-structure scan splits into
// chunks, a bounded worker pool pulls chunks from per-worker interval
// queues with work stealing, and the results merge back in chunk order,
// so the output is identical at every worker count.
//
// The pool knows nothing about disks or volumes, and its callers keep it
// that way: a chunk is just an index into buffers the pass's one driver has
// already read, in address order, and the chunk function only checks them
// and records its findings into caller-owned per-chunk slots — the disk has
// one arm, so a pass has one reader (DESIGN §17). Determinism then falls
// out of two rules the callers follow:
//
//   - results are merged in chunk order, never in completion order;
//   - anything order-dependent (device reads, dedup against earlier finds,
//     checkpoint cursors, problem lists) is done by the single driving
//     goroutine, not by the workers.
//
// CPU cost is accumulated per worker through Worker.Charge rather than
// charged to the simulated CPU directly: charging would advance the
// virtual clock once per worker for the same wall-clock instant. What goes
// on the clock is the pool's critical path (BalancedCPU), which degenerates
// to the exact sequential total at one worker — and for a pass that has
// device work to do meanwhile, Overlap puts it on the clock's lane, beside
// the driver's next read, so the pass pays the larger of the two and not
// their sum.
package parscan

import (
	"sync"
	"time"
)

// WorkerStats is one worker's accounting for a pool run.
type WorkerStats struct {
	Chunks int           // chunks this worker executed
	Steals int           // chunks it took from another worker's interval
	CPU    time.Duration // processor cost accumulated via Charge
}

// Stats reports a completed pool run.
type Stats struct {
	Workers   int
	PerWorker []WorkerStats
}

// TotalCPU sums the processor cost across all workers — the work the scan
// performed, independent of how it was spread.
func (s Stats) TotalCPU() time.Duration {
	var t time.Duration
	for _, w := range s.PerWorker {
		t += w.CPU
	}
	return t
}

// BalancedCPU is the pool's modeled CPU critical path in virtual time:
// the total work divided across the width, rounded up. Stealing keeps the
// real pool within one chunk of balanced, and virtual time must not
// inherit the real scheduler's whims — a deterministic simulation charges
// the deterministic critical path. At one worker it equals TotalCPU.
func (s Stats) BalancedCPU() time.Duration {
	n := time.Duration(s.Workers)
	if n <= 0 {
		return 0
	}
	return (s.TotalCPU() + n - 1) / n
}

// Steals sums the stolen-chunk count across workers.
func (s Stats) Steals() int {
	n := 0
	for _, w := range s.PerWorker {
		n += w.Steals
	}
	return n
}

// Worker is the per-goroutine context handed to the chunk function.
type Worker struct {
	stats WorkerStats
}

// Charge accumulates processor cost privately; the pool owner charges the
// simulated CPU once, from the merged stats.
func (w *Worker) Charge(d time.Duration) {
	if d > 0 {
		w.stats.CPU += d
	}
}

// interval is one worker's remaining contiguous chunk range [lo, hi).
type interval struct {
	lo, hi int
}

// pool is one running scan.
type pool struct {
	fn func(w *Worker, chunk int) error

	mu        sync.Mutex
	intervals []interval

	errMu    sync.Mutex
	errChunk int
	err      error

	wg    sync.WaitGroup
	stats Stats
}

// Run executes fn once for every chunk in [0, chunks) on workers goroutines
// and returns when all of them have stopped. Chunks are dealt as contiguous
// per-worker intervals; a worker that drains its own interval steals the
// tail half of the largest remaining one, so a slow region does not leave
// the rest of the pool idle. fn may be called from any worker concurrently
// with any other chunk; an error stops the pool and Run returns the error of
// the lowest-numbered failing chunk, so the error surface is deterministic
// too.
//
// Run is the only entry: a pool cannot be started and left running beside
// its caller, which is what let a pass hand its device reads to the workers.
// (Overlap runs it beside the caller's next read, and is back only when it
// is.)
func Run(workers, chunks int, fn func(w *Worker, chunk int) error) (Stats, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > chunks && chunks > 0 {
		workers = chunks
	}
	p := &pool{
		fn:        fn,
		intervals: make([]interval, workers),
		errChunk:  -1,
	}
	p.stats = Stats{Workers: workers, PerWorker: make([]WorkerStats, workers)}
	// Deal [0, chunks) as equal contiguous intervals.
	per := (chunks + workers - 1) / workers
	for i := range p.intervals {
		lo := i * per
		hi := lo + per
		if lo > chunks {
			lo = chunks
		}
		if hi > chunks {
			hi = chunks
		}
		p.intervals[i] = interval{lo, hi}
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.run(i)
	}
	p.wg.Wait()
	return p.stats, p.err
}

// next hands worker id its next chunk: the head of its own interval, or a
// stolen tail half of the largest remaining interval. ok=false means the
// scan is over (drained, or retracted by a failure).
func (p *pool) next(id int) (chunk int, stolen, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	own := &p.intervals[id]
	if own.lo < own.hi {
		chunk = own.lo
		own.lo++
		return chunk, false, true
	}
	// Steal from the victim with the most chunks left.
	victim, best := -1, 0
	for i := range p.intervals {
		if n := p.intervals[i].hi - p.intervals[i].lo; n > best {
			victim, best = i, n
		}
	}
	if victim < 0 {
		return 0, false, false
	}
	v := &p.intervals[victim]
	// Take the tail half (at least one chunk) as the thief's new interval,
	// and return its first chunk.
	take := (v.hi - v.lo + 1) / 2
	own.lo, own.hi = v.hi-take, v.hi
	v.hi -= take
	chunk = own.lo
	own.lo++
	return chunk, true, true
}

// fail records a chunk's error; the lowest chunk index wins. Chunks above
// the failing one are retracted, but chunks below it keep running: any of
// them could fail with a lower index, so the pool converges on the true
// lowest failing chunk no matter which worker hit an error first — the
// error surface is deterministic, not a scheduling accident.
func (p *pool) fail(chunk int, err error) {
	p.errMu.Lock()
	if p.errChunk < 0 || chunk < p.errChunk {
		p.errChunk, p.err = chunk, err
	}
	p.errMu.Unlock()
	p.mu.Lock()
	for i := range p.intervals {
		if p.intervals[i].hi > chunk {
			p.intervals[i].hi = chunk
		}
		if p.intervals[i].lo > p.intervals[i].hi {
			p.intervals[i].lo = p.intervals[i].hi
		}
	}
	p.mu.Unlock()
}

func (p *pool) run(id int) {
	defer p.wg.Done()
	w := &Worker{}
	for {
		chunk, stolen, ok := p.next(id)
		if !ok {
			break
		}
		w.stats.Chunks++
		if stolen {
			w.stats.Steals++
		}
		if err := p.fn(w, chunk); err != nil {
			p.fail(chunk, err)
			break
		}
	}
	p.mu.Lock()
	p.stats.PerWorker[id] = w.stats
	p.mu.Unlock()
}
