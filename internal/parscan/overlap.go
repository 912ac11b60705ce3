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
	return OverlapThen(lane, workers, stretches, ahead, read, check, nil, merge)
}

// OverlapThen is Overlap with a step of the driver's own between the reads
// and the merges: once the last of the stretches is handed to the pool, and
// before anything else — a merge still owed included — the driver calls then,
// and the pass goes on with the more stretches it returns, numbered on from
// stretches, read, checked and merged like the first. The pool goes on
// checking what it holds while then runs; what then does on the clock is
// hidden by as much of the lane's work as was still queued when it began. An
// error from then ends the pass like a read error. then may be nil, and with
// no stretches at all it is still called. A pass that gives then something to
// hide passes an ahead of at least every stretch it will have, so no merge
// joins the lane before it.
func OverlapThen(lane *sim.Lane, workers, stretches, ahead int,
	read func(i int) (chunks int, err error),
	check func(i int, w *Worker, chunk int),
	then func() (more int, err error),
	merge func(i int, ps Stats) error) error {
	type job struct {
		i, chunks int
		handed    time.Duration // the lane's time when read(i) returned
		ps        Stats
		done      chan struct{} // closed once the pool has checked the stretch
	}
	ahead = max(ahead, 1)
	// The pool never waits for the driver but to receive, so a send past the
	// buffer waits only for the pool to take the stretch before.
	jobs := make(chan *job, max(min(ahead, stretches), 1))
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for j := range jobs {
			j.ps, _ = Run(workers, j.chunks, func(w *Worker, c int) error {
				check(j.i, w, c)
				return nil
			})
			close(j.done)
		}
	}()
	var owed []*job // handed over and not yet merged, in order
	defer func() {
		close(jobs)
		<-stopped
	}()
	settle := func() error {
		j := owed[0]
		owed = owed[1:]
		<-j.done
		lane.Hand(j.handed, j.ps.BalancedCPU())
		lane.Join()
		return merge(j.i, j.ps)
	}
	for i := 0; ; i++ {
		if i == stretches && then != nil {
			more, err := then()
			if err != nil {
				return err
			}
			then, stretches = nil, stretches+more
		}
		if i >= stretches {
			break
		}
		chunks, err := read(i)
		if err != nil {
			return err
		}
		if i >= ahead {
			if err := settle(); err != nil {
				return err
			}
		}
		j := &job{i: i, chunks: chunks, handed: lane.Now(), done: make(chan struct{})}
		owed = append(owed, j)
		jobs <- j
	}
	for len(owed) > 0 {
		if err := settle(); err != nil {
			return err
		}
	}
	return nil
}
