package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	if c.Now() != 0 {
		t.Fatal("fresh clock not at epoch")
	}
	c.Advance(10 * time.Millisecond)
	c.Advance(5 * time.Millisecond)
	if c.Now() != 15*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	// Negative and zero advances are ignored.
	c.Advance(-time.Second)
	c.Advance(0)
	if c.Now() != 15*time.Millisecond {
		t.Fatal("negative advance moved the clock")
	}
}

func TestVirtualClockSetNeverGoesBack(t *testing.T) {
	c := NewVirtualClock()
	c.Set(time.Second)
	c.Set(500 * time.Millisecond)
	if c.Now() != time.Second {
		t.Fatalf("Set moved time backward: %v", c.Now())
	}
}

func TestVirtualClockConcurrent(t *testing.T) {
	c := NewVirtualClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8*1000*time.Microsecond {
		t.Fatalf("concurrent advances lost: %v", c.Now())
	}
}

func TestCPUChargeAdvancesClockAndBusy(t *testing.T) {
	clk := NewVirtualClock()
	cpu := NewCPU(clk)
	cpu.Charge(3 * time.Millisecond)
	if clk.Now() != 3*time.Millisecond {
		t.Fatal("charge did not advance clock")
	}
	if cpu.Busy() != 3*time.Millisecond {
		t.Fatal("busy not accumulated")
	}
	prev := cpu.ResetBusy()
	if prev != 3*time.Millisecond || cpu.Busy() != 0 {
		t.Fatal("ResetBusy wrong")
	}
	if clk.Now() != 3*time.Millisecond {
		t.Fatal("ResetBusy touched the clock")
	}
}

func TestCPUDetached(t *testing.T) {
	clk := NewVirtualClock()
	cpu := NewCPU(clk)
	cpu.SetDetached(true)
	cpu.Charge(5 * time.Millisecond)
	if clk.Now() != 0 {
		t.Fatal("detached charge advanced the clock")
	}
	if cpu.Busy() != 5*time.Millisecond {
		t.Fatal("detached charge not accumulated")
	}
	cpu.SetDetached(false)
	cpu.Charge(time.Millisecond)
	if clk.Now() != time.Millisecond {
		t.Fatal("reattached charge did not advance the clock")
	}
}

// TestCPUChargeOverlapped: an overlapped charge is busy in full and puts on
// the clock only what outlasts the device time beside it — nothing when it
// fits, the remainder when it does not, and nothing at all when detached.
func TestCPUChargeOverlapped(t *testing.T) {
	clk := NewVirtualClock()
	cpu := NewCPU(clk)
	cpu.ChargeOverlapped(4*time.Millisecond, 10*time.Millisecond)
	if clk.Now() != 0 || cpu.Busy() != 4*time.Millisecond {
		t.Fatalf("fitting charge: clock %v, busy %v; want 0, 4ms", clk.Now(), cpu.Busy())
	}
	cpu.ChargeOverlapped(10*time.Millisecond, 3*time.Millisecond)
	if clk.Now() != 7*time.Millisecond || cpu.Busy() != 14*time.Millisecond {
		t.Fatalf("longer charge: clock %v, busy %v; want 7ms, 14ms", clk.Now(), cpu.Busy())
	}
	cpu.ChargeOverlapped(2*time.Millisecond, 0)
	if clk.Now() != 9*time.Millisecond {
		t.Fatalf("charge beside nothing: clock %v, want 9ms (a plain Charge)", clk.Now())
	}
	cpu.SetDetached(true)
	cpu.ChargeOverlapped(5*time.Millisecond, 0)
	if clk.Now() != 9*time.Millisecond || cpu.Busy() != 21*time.Millisecond {
		t.Fatalf("detached: clock %v, busy %v; want 9ms, 21ms", clk.Now(), cpu.Busy())
	}
}

func TestCPUNegativeChargeIgnored(t *testing.T) {
	clk := NewVirtualClock()
	cpu := NewCPU(clk)
	cpu.Charge(-time.Second)
	if cpu.Busy() != 0 || clk.Now() != 0 {
		t.Fatal("negative charge had an effect")
	}
}

// Property: any sequence of advances sums exactly.
func TestQuickAdvanceSums(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewVirtualClock()
		var want time.Duration
		for _, s := range steps {
			d := time.Duration(s) * time.Microsecond
			c.Advance(d)
			want += d
		}
		return c.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
