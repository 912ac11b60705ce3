package parscan

import "repro/internal/sim"

// Overlap runs a check pass as two actors on two timelines (DESIGN §17): the
// calling goroutine — the pass's driver, the one reader the one arm allows —
// and the pool. The pass is cut into stretches; while the pool checks stretch
// i, on goroutines of its own, the driver is already having the device read
// stretch i+1. Per stretch:
//
//	read(i+1)   driver: the device work of the next stretch, into the buffer
//	            set check(i) is not looking at; it returns the number of
//	            chunks the stretch has for the pool
//	check(i, w, chunk)   pool: Run's chunk function over stretch i's buffers;
//	            it never touches the device and records into per-chunk slots
//	merge(i, stats)   driver: fold stretch i's slots in chunk order and make
//	            the result durable, after the pool has finished stretch i
//
// Two buffer sets, i%2, are enough: read(i+1) starts only after merge(i-1)
// has returned, so set (i+1)%2 is the driver's again, and check(i) has set
// i%2 to itself from the return of read(i) to the call of merge(i).
//
// On the simulated clock the pool is the lane: stretch i's balanced CPU is
// handed to it at the moment check(i) started and joined before merge(i), so
// a stretch costs max(read(i+1), check(i)) where it cost their sum — and
// since only the driver touches the lane, and the duration handed is
// BalancedCPU, simulated time is a function of the device order and the width
// and repeats whatever the scheduler does. On the wall clock the goroutines
// really overlap. Run stays the pool's only entry: nothing is left running
// when Overlap returns, whichever way it returns.
//
// A read error ends the pass once the check in flight has finished (its
// stretch is not merged: a checkpoint may cover only what is swept and
// merged); a merge error ends it with nothing in flight.
func Overlap(lane *sim.Lane, workers, stretches int,
	read func(i int) (chunks int, err error),
	check func(i int, w *Worker, chunk int),
	merge func(i int, ps Stats) error) error {
	if stretches <= 0 {
		return nil
	}
	chunks, err := read(0)
	if err != nil {
		return err
	}
	checked := make(chan Stats)
	for i := 0; i < stretches; i++ {
		handed := lane.Now()
		go func(i, chunks int) {
			ps, _ := Run(workers, chunks, func(w *Worker, c int) error {
				check(i, w, c)
				return nil
			})
			checked <- ps
		}(i, chunks)
		if i+1 < stretches {
			chunks, err = read(i + 1)
		}
		ps := <-checked
		if err != nil {
			return err
		}
		lane.Hand(handed, ps.BalancedCPU())
		lane.Join()
		if err := merge(i, ps); err != nil {
			return err
		}
	}
	return nil
}
