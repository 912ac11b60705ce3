package sim

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// TestLaneOverlapCostsTheLarger: work handed to the lane runs beside what the
// foreground does until the join, so a stretch costs the larger of the two.
func TestLaneOverlapCostsTheLarger(t *testing.T) {
	clk := NewVirtualClock()
	cpu := NewCPU(clk)
	l := cpu.NewLane()

	// Lane-bound: 30 ms of lane work beside 10 ms of foreground.
	l.Hand(l.Now(), 30*ms)
	clk.Advance(10 * ms)
	l.Join()
	if clk.Now() != 30*ms {
		t.Fatalf("lane-bound stretch ended at %v, want 30ms", clk.Now())
	}
	// Foreground-bound: 10 ms of lane work beside 25 ms of foreground.
	l.Hand(l.Now(), 10*ms)
	clk.Advance(25 * ms)
	l.Join()
	if clk.Now() != 55*ms {
		t.Fatalf("foreground-bound stretch ended at %v, want 55ms", clk.Now())
	}
	if l.Hidden() != 20*ms {
		t.Fatalf("hidden %v of 40ms, want 20ms (10 behind the lane, 10 behind the foreground)", l.Hidden())
	}
}

// TestLaneHandWhileBusyQueues: work handed while the lane is still busy starts
// when the earlier work ends, not when it was handed.
func TestLaneHandWhileBusyQueues(t *testing.T) {
	clk := NewVirtualClock()
	l := NewCPU(clk).NewLane()
	l.Hand(0, 20*ms)
	clk.Advance(5 * ms)
	l.Hand(l.Now(), 20*ms) // lane busy until 20: runs 20..40, not 5..25
	l.Join()
	if clk.Now() != 40*ms {
		t.Fatalf("joined at %v, want 40ms", clk.Now())
	}
	// Handed in the past, after the lane fell idle: starts at the time named.
	clk.Advance(60 * ms) // now 100
	l.Hand(90*ms, 15*ms)
	l.Join()
	if clk.Now() != 105*ms {
		t.Fatalf("joined at %v, want 105ms", clk.Now())
	}
}

// TestLaneJoinNeverMovesTheClockBack: a lane that finished long ago costs
// nothing to join, however often.
func TestLaneJoinNeverMovesTheClockBack(t *testing.T) {
	clk := NewVirtualClock()
	l := NewCPU(clk).NewLane()
	l.Join() // idle lane
	if clk.Now() != 0 {
		t.Fatalf("joining an idle lane moved the clock to %v", clk.Now())
	}
	l.Hand(0, 10*ms)
	clk.Advance(time.Second)
	l.Join()
	l.Join()
	if clk.Now() != time.Second {
		t.Fatalf("late join moved the clock to %v, want 1s", clk.Now())
	}
	if l.Hidden() != 10*ms {
		t.Fatalf("hidden %v, want all 10ms", l.Hidden())
	}
}

// TestLaneBusyCounted: lane work is processor time like any charge, and on a
// detached CPU a join leaves the clock alone as a charge does.
func TestLaneBusyCounted(t *testing.T) {
	clk := NewVirtualClock()
	cpu := NewCPU(clk)
	cpu.Charge(2 * ms)
	l := cpu.NewLane()
	l.Hand(l.Now(), 7*ms)
	l.Hand(l.Now(), -ms) // ignored, like a negative charge
	l.Join()
	if cpu.Busy() != 9*ms || clk.Now() != 9*ms {
		t.Fatalf("busy %v clock %v, want 9ms both", cpu.Busy(), clk.Now())
	}
	cpu.SetDetached(true)
	l.Hand(l.Now(), 5*ms)
	l.Join()
	if cpu.Busy() != 14*ms || clk.Now() != 9*ms {
		t.Fatalf("detached: busy %v clock %v, want 14ms and 9ms", cpu.Busy(), clk.Now())
	}
}
