// Package allocgate is what the allocation-gate tests share: the byte
// counterpart of testing.AllocsPerRun, and whether the race detector is
// compiled in. Gates that involve a sync.Pool skip themselves under the
// detector, which makes a Pool drop a quarter of what it is given, on
// purpose, so that the counts such a gate pins no longer hold.
package allocgate

import "runtime"

// BytesPerRun returns the average number of bytes f allocates per call,
// measured like testing.AllocsPerRun: one warm-up call, then runs calls on
// one processor.
func BytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
