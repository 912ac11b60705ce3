package parscan

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestOverlapRunsBothAtOnce: the overlap is executed, not computed. The read
// of stretch i+1 and the check of stretch i each wait for the other to have
// started; a helper that ran them one after the other would hang here.
func TestOverlapRunsBothAtOnce(t *testing.T) {
	const stretches = 5
	lane := sim.NewCPU(sim.NewVirtualClock()).NewLane()
	reading := make([]chan struct{}, stretches+1)
	checking := make([]chan struct{}, stretches+1)
	for i := range reading {
		reading[i], checking[i] = make(chan struct{}), make(chan struct{})
	}
	meet := func(what string, ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("%s never started beside its partner", what)
		}
	}
	var once [stretches]sync.Once
	err := Overlap(lane, 2, stretches, 1,
		func(i int) (int, error) {
			close(reading[i])
			if i > 0 {
				meet(fmt.Sprintf("check of stretch %d", i-1), checking[i-1])
			}
			return 4, nil
		},
		func(i int, w *Worker, c int) {
			once[i].Do(func() { close(checking[i]) })
			if i+1 < stretches {
				meet(fmt.Sprintf("read of stretch %d", i+1), reading[i+1])
			}
		},
		func(i int, ps Stats) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlapOrderAndClock: reads are issued in order, each before the merge
// of the stretch before it, merges in order; and on the simulated clock a
// stretch costs the larger of the next read and its own balanced check.
func TestOverlapOrderAndClock(t *testing.T) {
	const ms = time.Millisecond
	for _, workers := range []int{1, 2, 4} {
		clk := sim.NewVirtualClock()
		cpu := sim.NewCPU(clk)
		lane := cpu.NewLane()
		readCost := []time.Duration{10 * ms, 50 * ms, 5 * ms, 20 * ms} // the arm
		chunkCost := []time.Duration{8 * ms, 3 * ms, 12 * ms, 1 * ms}  // per chunk, 4 chunks a stretch
		var trace []string
		err := Overlap(lane, workers, 4, 1,
			func(i int) (int, error) {
				trace = append(trace, fmt.Sprintf("r%d", i))
				clk.Advance(readCost[i])
				return 4, nil
			},
			func(i int, w *Worker, c int) { w.Charge(chunkCost[i]) },
			func(i int, ps Stats) error {
				trace = append(trace, fmt.Sprintf("m%d", i))
				if ps.TotalCPU() != 4*chunkCost[i] {
					t.Errorf("stretch %d: pool reports %v, want %v", i, ps.TotalCPU(), 4*chunkCost[i])
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(trace, " "); got != "r0 r1 m0 r2 m1 r3 m2 m3" {
			t.Fatalf("workers=%d: order %q", workers, got)
		}
		want := readCost[0]
		var sum time.Duration
		for i := range chunkCost {
			pool := 4 * chunkCost[i] / time.Duration(workers)
			arm := time.Duration(0)
			if i+1 < len(readCost) {
				arm = readCost[i+1]
			}
			want += max(arm, pool)
			sum += arm + pool
		}
		if clk.Now() != want || clk.Now() >= readCost[0]+sum {
			t.Fatalf("workers=%d: pass took %v, want %v (the sum would be %v)", workers, clk.Now(), want, readCost[0]+sum)
		}
		if lane.Hidden() != readCost[0]+sum-want {
			t.Fatalf("workers=%d: hidden %v, want %v", workers, lane.Hidden(), readCost[0]+sum-want)
		}
	}
}

// TestOverlapErrors: a failed read returns only once the check in flight has
// finished, and leaves that stretch unmerged; a failed merge ends the pass
// with nothing started after it.
func TestOverlapErrors(t *testing.T) {
	boom := errors.New("halted")
	lane := sim.NewCPU(sim.NewVirtualClock()).NewLane()
	var mu sync.Mutex
	running, merged, checked := 0, []int(nil), 0
	err := Overlap(lane, 4, 5, 1,
		func(i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return 8, nil
		},
		func(i int, w *Worker, c int) {
			mu.Lock()
			running++
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			checked++
			mu.Unlock()
		},
		func(i int, ps Stats) error { merged = append(merged, i); return nil })
	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(err, boom) || running != 0 || checked != 3*8 || fmt.Sprint(merged) != "[0 1]" {
		t.Fatalf("read error: err=%v, %d chunk functions still running, %d run, merged %v", err, running, checked, merged)
	}

	reads := 0
	err = Overlap(lane, 2, 5, 1,
		func(i int) (int, error) { reads++; return 2, nil },
		func(i int, w *Worker, c int) {},
		func(i int, ps Stats) error {
			if i == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || reads != 3 {
		t.Fatalf("merge error: err=%v after %d reads, want 3 (stretch 2 was read beside check 1, nothing after)", err, reads)
	}
	if err := Overlap(lane, 2, 0, 1, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOverlapRunsAhead: with ahead buffer sets to spare the driver reads that
// many stretches past the oldest unmerged one, and with as many as there are
// stretches it reads them all before it waits for the pool at all — the check
// of stretch 0 is held until the last read has begun, which a driver that
// joined per stretch would never reach. The pool still takes the stretches one
// at a time, merges stay in order, and the clock is the lane's: every stretch
// queued behind the one before it from the moment its read returned.
func TestOverlapRunsAhead(t *testing.T) {
	const ms = time.Millisecond
	readCost := []time.Duration{10 * ms, 50 * ms, 5 * ms, 20 * ms, 5 * ms}
	chunkCost := []time.Duration{8 * ms, 3 * ms, 12 * ms, 1 * ms, 9 * ms} // per chunk, 4 chunks a stretch
	const stretches = 5
	orders := map[int]string{
		2:         "r0 r1 r2 m0 r3 m1 r4 m2 m3 m4",
		stretches: "r0 r1 r2 r3 r4 m0 m1 m2 m3 m4",
		99:        "r0 r1 r2 r3 r4 m0 m1 m2 m3 m4",
	}
	for ahead, order := range orders {
		for _, workers := range []int{1, 2, 4} {
			clk := sim.NewVirtualClock()
			lane := sim.NewCPU(clk).NewLane()
			lastRead := make(chan struct{})
			var mu sync.Mutex
			inCheck, overlapped := -1, false
			var trace []string
			err := Overlap(lane, workers, stretches, ahead,
				func(i int) (int, error) {
					trace = append(trace, fmt.Sprintf("r%d", i))
					if i == stretches-1 {
						close(lastRead)
					}
					clk.Advance(readCost[i])
					return 4, nil
				},
				func(i int, w *Worker, c int) {
					if ahead >= stretches && i == 0 {
						select {
						case <-lastRead:
						case <-time.After(10 * time.Second):
							t.Error("the last read never began while stretch 0 was being checked")
						}
					}
					mu.Lock()
					overlapped = overlapped || (inCheck >= 0 && inCheck != i)
					inCheck = i
					mu.Unlock()
					w.Charge(chunkCost[i])
					mu.Lock()
					inCheck = -1
					mu.Unlock()
				},
				func(i int, ps Stats) error {
					trace = append(trace, fmt.Sprintf("m%d", i))
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(trace, " "); got != order {
				t.Fatalf("ahead=%d workers=%d: order %q, want %q", ahead, workers, got, order)
			}
			if overlapped {
				t.Fatalf("ahead=%d workers=%d: two stretches were in the pool at once", ahead, workers)
			}
			if ahead < stretches {
				continue
			}
			// Never joined before the last read: the lane's own arithmetic.
			var now, free, work time.Duration
			for i := range readCost {
				now += readCost[i]
				pool := (4*chunkCost[i] + time.Duration(workers) - 1) / time.Duration(workers)
				free = max(free, now) + pool
				work += pool
			}
			want := max(now, free)
			if clk.Now() != want || lane.Hidden() != now+work-want {
				t.Fatalf("ahead=%d workers=%d: pass took %v with %v hidden, want %v and %v", ahead, workers, clk.Now(), lane.Hidden(), want, now+work-want)
			}
		}
	}
}
