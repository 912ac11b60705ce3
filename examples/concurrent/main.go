// Concurrent drives one FSD volume from many goroutines at once — the
// workload Cedar's single monitor serialized — and prints the commit-wait
// latency percentiles of the pipelined group commit (Append returns a
// sequence number immediately; WaitCommitted makes it durable on demand
// without stalling other workers), plus the simulated time the run took.
//
// The elapsed figure is measured on the volume's simulated clock, not
// modelled: the device's time and every goroutine's CPU charges land on that
// one clock and add up, so it is the run's cost on a one-processor machine,
// not a parallel speedup.
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

const (
	workers   = 8
	perWorker = 150
	shared    = 80
)

func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return ds[int(p*float64(len(ds)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
	if err != nil {
		log.Fatal(err)
	}
	v, err := core.Format(d, core.Config{NTPages: 2048})
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < shared; i++ {
		if _, err := v.Create(fmt.Sprintf("shared/f%03d", i), data); err != nil {
			log.Fatal(err)
		}
	}
	if err := v.Force(); err != nil {
		log.Fatal(err)
	}

	v.CPU().ResetBusy()
	busy0 := d.Stats().BusyTime()
	start := clk.Now()

	var mu sync.Mutex
	var waits []time.Duration
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w*17 + i*5) % shared
				switch i % 5 {
				case 0, 1: // open
					if _, err := v.Open(fmt.Sprintf("shared/f%03d", k), 0); err != nil {
						log.Fatal(err)
					}
				case 2: // whole-file read
					f, err := v.Open(fmt.Sprintf("shared/f%03d", k), 0)
					if err != nil {
						log.Fatal(err)
					}
					if _, err := f.ReadAll(); err != nil {
						log.Fatal(err)
					}
				case 3: // create
					if _, err := v.Create(fmt.Sprintf("priv/w%d-%04d", w, i), data[:512]); err != nil {
						log.Fatal(err)
					}
				case 4: // create, then wait for the group commit
					if _, err := v.Create(fmt.Sprintf("priv/w%d-%04d", w, i), data[:512]); err != nil {
						log.Fatal(err)
					}
					seq := v.CommitSeq()
					t0 := clk.Now()
					if err := v.WaitCommitted(seq); err != nil {
						log.Fatal(err)
					}
					mu.Lock()
					waits = append(waits, clk.Now()-t0)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := v.Force(); err != nil {
		log.Fatal(err)
	}

	elapsed := clk.Now() - start
	ops := workers * perWorker
	slices.Sort(waits)
	fmt.Printf("mixed workload, %d goroutines x %d ops (40%% open, 20%% read, 40%% create, every 5th op fsyncs)\n\n",
		workers, perWorker)
	fmt.Printf("%d ops in %.2f simulated s (disk busy %.2f s, cpu %.2f s)\n",
		ops, elapsed.Seconds(), (d.Stats().BusyTime() - busy0).Seconds(), v.CPU().Busy().Seconds())
	fmt.Println("  measured on the simulated clock: CPU charges from all goroutines add up on it")
	fmt.Printf("commit-wait latency (n=%d): p50 %.1f ms  p90 %.1f ms  p99 %.1f ms\n",
		len(waits), ms(pct(waits, 0.50)), ms(pct(waits, 0.90)), ms(pct(waits, 0.99)))
}
