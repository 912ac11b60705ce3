package sim

import "time"

// Lane is a second actor beside a clock's foreground: a processor (or a pool
// of them, priced as one) that works while the foreground does something
// else — in this repo, a check pass's pool decoding one stretch of buffers
// while the pass's driver has the disk arm read the next (DESIGN §17).
//
// The foreground hands the lane work and later joins it. Work handed at time
// t keeps the lane busy from max(t, when it is next free) for the work's
// duration; Join moves the clock to the moment the lane falls idle, and only
// if that is later than now. So a stretch of a pipelined pass costs the larger
// of its two halves, not their sum: what the foreground did between the hand
// and the join hides that much of the lane's work, or the lane's work hides
// it. Lane time counts in CPU.Busy like any other charge.
//
// A Lane is not safe for concurrent use, on purpose: it belongs to the one
// goroutine that drives a pass, so the times it computes depend on that
// goroutine's device order and the work's modelled duration and on nothing a
// scheduler decides. Foreground charges (CPU.Charge) are summed onto the
// clock as before; a Lane does not change them.
type Lane struct {
	cpu    *CPU
	free   time.Duration // when the lane finishes the work it holds
	work   time.Duration // total handed over
	waited time.Duration // total Join advanced the clock
}

// NewLane returns an idle lane of the processor c, on c's clock.
func (c *CPU) NewLane() *Lane { return &Lane{cpu: c} }

// Now is the lane's clock: the time to name when handing over work that
// starts now.
func (l *Lane) Now() time.Duration { return l.cpu.clk.Now() }

// Hand gives the lane d of work at time t: it starts when the lane has
// finished everything handed earlier, or at t if that is later. t may lie in
// the past — the driver notes the time, lets the real pool run beside its own
// device work, and hands over the modelled duration once the pool has
// reported it.
func (l *Lane) Hand(t, d time.Duration) {
	if d <= 0 {
		return
	}
	if t > l.free {
		l.free = t
	}
	l.free += d
	l.work += d
	l.cpu.busy.Add(int64(d))
}

// Free is when the lane finishes the work it holds — a time already past if
// it has fallen idle.
func (l *Lane) Free() time.Duration { return l.free }

// Join waits for the lane: the clock moves forward to the lane's finish if
// the lane is still busy, and not at all if it fell idle earlier. On a
// detached CPU the clock stays put, as it does for Charge.
func (l *Lane) Join() {
	wait := l.free - l.Now()
	if wait <= 0 || l.cpu.detached.Load() {
		return
	}
	l.waited += wait
	l.cpu.clk.Advance(wait)
}

// Hidden is how much of the work handed over cost no elapsed time, because
// the foreground was busy with something else while the lane did it: the work
// less what the joins waited.
func (l *Lane) Hidden() time.Duration { return l.work - l.waited }
