package parscan

import (
	"time"

	"repro/internal/sim"
)

// Overlap runs a check pass as two actors on two timelines (DESIGN §17): the
// calling goroutine — the pass's driver, the one reader the one arm allows —
// and the pool. The pass is cut into stretches; while the pool checks stretch
// i, on goroutines of its own, the driver is already having the device read
// the stretches after it. Per stretch:
//
//	read(i)     driver: the device work of the stretch, into a buffer set no
//	            check is looking at; it returns the number of chunks the
//	            stretch has for the pool
//	check(i, w, chunk)   pool: Run's chunk function over stretch i's buffers;
//	            it never touches the device and records into per-chunk slots.
//	            The pool takes the stretches one at a time, in order: every
//	            chunk of stretch i has returned before one of i+1 starts
//	merge(i, stats)   driver: fold stretch i's slots in chunk order and make
//	            the result durable, after the pool has finished stretch i
//
// ahead is how far the driver may run in front of the merges: it reads
// stretch i+1 once merge(i-ahead) has returned, so a pass needs ahead+1
// buffer sets, i%(ahead+1) — check(i) has its set to itself from the return
// of read(i) to the call of merge(i). At 1 the pass holds two sets and the
// driver waits for the pool once per stretch; at ahead ≥ stretches it holds
// every buffer it reads and never waits for the pool until the last transfer
// is in — the merges then follow, in order, each as soon as its check is done.
//
// On the simulated clock the pool is the lane: stretch i's balanced CPU is
// handed to it at the moment read(i) returned — queued behind what the lane
// still holds — and joined before merge(i), so the pass costs the larger of
// its reads and its checks where it cost their sum. Since only the driver
// touches the lane, hands it the stretches in order, and the duration handed
// is BalancedCPU, simulated time is a function of the device order, the width
// and the modelled cost, and repeats whatever the scheduler does. On the wall
// clock the goroutines really overlap. Run stays the pool's only entry:
// nothing is left running when Overlap returns, whichever way it returns.
//
// A read error ends the pass once the checks handed over have finished (their
// stretches are not merged: a checkpoint may cover only what is swept and
// merged); a merge error ends it the same way.
func Overlap(lane *sim.Lane, workers, stretches, ahead int,
	read func(i int) (chunks int, err error),
	check func(i int, w *Worker, chunk int),
	merge func(i int, ps Stats) error) error {
	if stretches <= 0 {
		return nil
	}
	ahead = min(max(ahead, 1), stretches)
	type job struct{ i, chunks int }
	// At most ahead stretches are handed over and not yet merged, so at that
	// size neither the driver's send nor the pool's ever blocks.
	jobs := make(chan job, ahead)
	checked := make(chan Stats, ahead)
	go func() {
		defer close(checked)
		for j := range jobs {
			ps, _ := Run(workers, j.chunks, func(w *Worker, c int) error {
				check(j.i, w, c)
				return nil
			})
			checked <- ps
		}
	}()
	defer func() {
		close(jobs)
		for range checked {
		}
	}()
	handed := make([]time.Duration, ahead) // of the stretches in flight, i%ahead
	settle := func(i int) error {
		ps := <-checked
		lane.Hand(handed[i%ahead], ps.BalancedCPU())
		lane.Join()
		return merge(i, ps)
	}
	chunks, err := read(0)
	if err != nil {
		return err
	}
	for i := 0; i < stretches; i++ {
		handed[i%ahead] = lane.Now()
		jobs <- job{i, chunks}
		if i+1 < stretches {
			if chunks, err = read(i + 1); err != nil {
				return err
			}
		}
		if i+1 >= ahead {
			if err := settle(i + 1 - ahead); err != nil {
				return err
			}
		}
	}
	for i := max(stretches-ahead+1, 0); i < stretches; i++ {
		if err := settle(i); err != nil {
			return err
		}
	}
	return nil
}
