package sim

import (
	"sync/atomic"
	"time"
)

// CPU models the processor of the simulated workstation. File-system code
// charges it for the instructions an operation would execute; the charge
// advances the clock and is accumulated separately from disk time so that
// Table 5's %CPU column can be computed.
//
// The paper notes that the FSD design "was very stingy with disk I/Os, but
// the CPU was sometimes a slight bottleneck" on the Dorado; the per-operation
// costs here are calibrated to that machine class and are documented next to
// each constant.
//
// All methods are safe for concurrent use; the busy accumulator is lock-free
// so that parallel file-system operations do not serialize on it.
type CPU struct {
	clk Clock

	busy     atomic.Int64 // nanoseconds charged so far
	detached atomic.Bool
}

// SetDetached switches the CPU to overlap mode: charges accumulate in the
// busy counter but do not advance the clock, modelling a pipeline where the
// processor works concurrently with the device (4.2 BSD's asynchronous
// delayed writes in Table 5, and the intent-queue applier, a second actor
// whose work is reported rather than added to the caller's timeline).
func (c *CPU) SetDetached(v bool) {
	c.detached.Store(v)
}

// NewCPU returns a CPU that charges time against clk.
func NewCPU(clk Clock) *CPU { return &CPU{clk: clk} }

// Charge advances the clock by d and records it as CPU-busy time.
func (c *CPU) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	c.busy.Add(int64(d))
	if !c.detached.Load() {
		c.clk.Advance(d)
	}
}

// ChargeOverlapped records d of work the processor did while the device was
// busy for `beside` on the same caller's behalf: all of d counts as busy, but
// only the part of it longer than beside advances the clock — the rest ran in
// the device's time. beside must be time the caller's own device request took,
// not anyone else's; that is what keeps the clock a sum of the callers'
// timelines.
func (c *CPU) ChargeOverlapped(d, beside time.Duration) {
	if d <= 0 {
		return
	}
	c.busy.Add(int64(d))
	if !c.detached.Load() {
		c.clk.Advance(d - beside)
	}
}

// Busy returns the total CPU time charged so far.
func (c *CPU) Busy() time.Duration {
	return time.Duration(c.busy.Load())
}

// ResetBusy zeroes the busy accumulator (the clock itself is unaffected) and
// returns the value it held. Benchmarks use it to window measurements.
func (c *CPU) ResetBusy() time.Duration {
	return time.Duration(c.busy.Swap(0))
}

// Representative per-operation CPU costs for a Dorado-class workstation (a
// couple of MIPS running garbage-collected Cedar code). These feed the %CPU
// column of Table 5 and the CPU-bound rows of Table 2 (e.g. FSD open at
// 11.7 ms with no I/O). They are calibrated once against Table 2 and then
// held fixed for every experiment; see EXPERIMENTS.md.
const (
	// CostSyscall is the fixed cost of entering the file system.
	CostSyscall = 2 * time.Millisecond
	// CostPerSectorCopy is the cost of moving one 512-byte sector between
	// a device buffer and a client buffer.
	CostPerSectorCopy = 150 * time.Microsecond
	// CostBTreeOp is the cost of one B-tree operation (name parse,
	// descent, slot shuffling) on a cached page.
	CostBTreeOp = 3 * time.Millisecond
	// CostChecksumPage is the cost of checksumming one 2 KB metadata page.
	CostChecksumPage = 400 * time.Microsecond
	// CostLabelInterpret is the cost the CFS scavenger pays to interpret
	// one sector label and fold it into its reconstruction tables.
	CostLabelInterpret = 4 * time.Millisecond
	// CostFileCreate is the fixed processor work of creating a file
	// object (property assembly, allocator bookkeeping, handle setup) —
	// charged by FSD and CFS alike; it is why the paper's FSD small
	// create costs 70 ms despite doing a single I/O.
	CostFileCreate = 15 * time.Millisecond
)
