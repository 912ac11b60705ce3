package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/parscan"
)

// The online scrubber: the active half of the paper's cheap-redundancy
// scheme. The passive half repairs a bad copy only when a read happens to
// hit it, so a latent sector error that develops between mounts silently
// halves the redundancy until the *other* copy decays too — at which point
// the page is lost. Scrub walks every duplicated structure (volume root
// pair, log anchor and record copies, both name-table copies) plus every
// leader page, CRC-verifies each side, rewrites a good image over a decayed
// or rotten one, and retires persistently bad sectors to the drive's spare
// pool after bounded rewrite attempts.

// ScrubStats reports one scrub pass.
type ScrubStats struct {
	NTPagesChecked  int
	NTRepaired      int // name-table home copies rewritten (per copy)
	NTLost          int // pages with no readable copy anywhere
	LeadersChecked  int
	LeadersRepaired int
	RootsRepaired   int
	LogRecords      int // valid log records audited
	LogRepaired     int // log sectors rewritten from their twin
	Retired         int // sectors remapped to spares
	SectorsChecked  int
	// SpareExhausted is set when a retirement failed because the drive's
	// spare-sector pool is empty (disk.ErrNoSpares): redundancy can no
	// longer be restored and the volume transitions to read-only.
	SpareExhausted bool
	Problems       []string
	Elapsed        time.Duration
	// NTElapsed is the part of Elapsed the name-table pass took.
	NTElapsed time.Duration
}

// Repaired sums all copy rewrites of the pass.
func (st ScrubStats) Repaired() int {
	return st.NTRepaired + st.LeadersRepaired + st.RootsRepaired + st.LogRepaired
}

func (st *ScrubStats) addProblem(format string, args ...interface{}) {
	st.Problems = append(st.Problems, fmt.Sprintf(format, args...))
}

// merge folds a worker's private stats into st.
func (st *ScrubStats) merge(o ScrubStats) {
	st.NTPagesChecked += o.NTPagesChecked
	st.NTRepaired += o.NTRepaired
	st.NTLost += o.NTLost
	st.LeadersChecked += o.LeadersChecked
	st.LeadersRepaired += o.LeadersRepaired
	st.RootsRepaired += o.RootsRepaired
	st.LogRecords += o.LogRecords
	st.LogRepaired += o.LogRepaired
	st.Retired += o.Retired
	st.SectorsChecked += o.SectorsChecked
	st.SpareExhausted = st.SpareExhausted || o.SpareExhausted
	st.Problems = append(st.Problems, o.Problems...)
}

// FaultStats aggregates the volume's media-fault handling activity.
type FaultStats struct {
	ReadRetries  int // reads retried after a damaged-sector error
	RetriedOK    int // retries that then succeeded (transient faults absorbed)
	Scrubs       int // scrub passes completed
	Repaired     int // copies rewritten by scrubbing (cumulative)
	Retired      int // sectors remapped to spares (cumulative)
	WriteRetries int // writes retried after a damaged-sector error
	WriteRemaps  int // sectors the write path retired to spares
	HungOps      int // disk operations that exceeded the 1 s I/O deadline
	// ErrorBudget is the weighted fault total driving the health FSM
	// (retry=1, remap=4, hung op=8; see Config.ErrorBudget).
	ErrorBudget int
}

// faultCounters is the race-free internal form of FaultStats, plus the
// health FSM's weighted error-budget accumulator.
type faultCounters struct {
	retries, retriedOK, scrubs, repaired, retired atomic.Int64
	writeRetries, writeRemaps, hungOps            atomic.Int64
	budget                                        atomic.Int64
}

// faultStats gathers the volume-level fault counters for Stats.
func (v *Volume) faultStats() FaultStats {
	return FaultStats{
		ReadRetries:  int(v.faults.retries.Load()),
		RetriedOK:    int(v.faults.retriedOK.Load()),
		Scrubs:       int(v.faults.scrubs.Load()),
		Repaired:     int(v.faults.repaired.Load()),
		Retired:      int(v.faults.retired.Load()),
		WriteRetries: int(v.faults.writeRetries.Load()),
		WriteRemaps:  int(v.faults.writeRemaps.Load()),
		HungOps:      int(v.faults.hungOps.Load()),
		ErrorBudget:  int(v.faults.budget.Load()),
	}
}

// readSectorsRetry reads with bounded in-place retries: a transient fault
// clears on another revolution; a genuine latent error keeps failing and
// surfaces to the caller, who repairs from a duplicate or reports loss.
// During the mount recovery window the retries also charge the error
// budget — recovery limping through decayed media is a health event — but
// in steady state they only count: a scrub retrying damage it is about to
// repair must not demote the volume for doing its job.
func (v *Volume) readSectorsRetry(addr, n int) ([]byte, error) {
	buf := make([]byte, n*disk.SectorSize)
	if err := v.readSectorsRetryInto(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readSectorsRetryInto is readSectorsRetry into the caller's buffers (see
// disk.ReadSectorsInto); on an error they are partly overwritten.
func (v *Volume) readSectorsRetryInto(addr int, dst ...[]byte) error {
	err := v.d.ReadSectorsInto(addr, dst...)
	if err == nil {
		return nil
	}
	var de *disk.DamagedError
	retried := 0
	for tries := 0; err != nil && errors.As(err, &de) && tries < v.cfg.readRetries(); tries++ {
		v.faults.retries.Add(1)
		retried++
		err = v.d.ReadSectorsInto(addr, dst...)
		if err == nil {
			v.faults.retriedOK.Add(1)
		}
	}
	if retried > 0 && v.recovering.Load() {
		v.chargeBudget(int64(retried)*weightRetry, "recovery read retries")
	}
	return err
}

// repairSectors rewrites sectors from a known-good image, retiring to a
// spare any sector the rewrite cannot clear (a stuck physical defect: the
// write reports success but the readback stays damaged).
func (v *Volume) repairSectors(addr int, data []byte, st *ScrubStats) error {
	if err := v.writeSectors(addr, data); err != nil {
		return err
	}
	n := len(data) / disk.SectorSize
	for i := 0; i < n; i++ {
		if !v.d.IsDamaged(addr + i) {
			continue
		}
		if err := v.d.Remap(addr + i); err != nil {
			if errors.Is(err, disk.ErrNoSpares) {
				st.SpareExhausted = true
				v.degradeTo(HealthReadOnly, "spare-sector pool exhausted")
			}
			st.addProblem("sector %d unrepairable: %v", addr+i, err)
			continue
		}
		if err := v.writeSectors(addr+i, data[i*disk.SectorSize:(i+1)*disk.SectorSize]); err != nil {
			return err
		}
		st.Retired++
		v.faults.retired.Add(1)
	}
	return nil
}

// Scrub runs one full scrub pass online: operations continue while it runs
// (the name-table pass serializes only against home writes of the page in
// hand, the leader pass shares the monitor). Concurrent Scrub calls
// serialize behind scrubMu.
func (v *Volume) Scrub() (_ ScrubStats, err error) {
	defer v.span("scrub")(&err)
	v.scrubMu.Lock()
	defer v.scrubMu.Unlock()
	var st ScrubStats
	if v.closed.Load() {
		return st, ErrClosed
	}
	if v.readOnly {
		return st, ErrReadOnly
	}
	start := v.clk.Now()
	v.scrubRoots(&st)
	ls, err := v.log.ScrubCopies(func(addr int, data []byte) error {
		return v.repairSectors(addr, data, &st)
	})
	if err != nil {
		return st, err
	}
	st.LogRecords = ls.Records
	st.LogRepaired = ls.Repaired
	st.SectorsChecked += ls.SectorsChecked
	st.Problems = append(st.Problems, ls.Problems...)
	if err := v.scrubNameTable(&st); err != nil {
		return st, err
	}
	if err := v.scrubLeaders(&st); err != nil {
		return st, err
	}
	v.faults.scrubs.Add(1)
	v.faults.repaired.Add(int64(st.Repaired()))
	v.traceScrub("pass", st.Repaired())
	st.Elapsed = v.clk.Now() - start
	return st, nil
}

// scrubRoots cross-checks the replicated volume root page.
func (v *Volume) scrubRoots(st *ScrubStats) {
	read := func(addr int) ([]byte, bool) {
		buf, err := v.readSectorsRetry(addr, 1)
		st.SectorsChecked++
		if err != nil {
			return nil, false
		}
		_, ok := decodeRoot(buf)
		return buf, ok
	}
	a, okA := read(v.lay.rootA)
	b, okB := read(v.lay.rootB)
	repair := func(addr int, good []byte) {
		if v.repairSectors(addr, good, st) == nil {
			st.RootsRepaired++
		}
	}
	switch {
	case okA && okB:
		if !bytes.Equal(a, b) {
			// Diverged (a crash between the two root writes): the primary
			// is written first, so it is the newer image.
			repair(v.lay.rootB, a)
		}
	case okA:
		repair(v.lay.rootB, a)
	case okB:
		repair(v.lay.rootA, b)
	default:
		st.addProblem("both volume root pages unreadable")
	}
}

// scrubNameTable cross-checks both home copies of every name-table page on
// the shared parscan pool, one chunk per ntSweepPages-page run, ScrubWorkers
// wide: a chunk reads its run of copy A and then of copy B as two sequential
// transfers (sweepNT) and compares them in memory, so a healthy table costs
// two reads per run instead of two per page; only a page that reads damaged
// or whose copies disagree is re-examined and repaired on its own
// (scrubNTPage). Results merge per chunk in page order, so the problem
// report is deterministic at any worker count. Single-copy volumes have
// nothing to cross-check.
func (v *Volume) scrubNameTable(st *ScrubStats) error {
	if v.cfg.SingleCopyNT {
		return nil
	}
	start := v.clk.Now()
	ids := v.lay.ntPages
	parts := make([]ScrubStats, (ids+ntSweepPages-1)/ntSweepPages)
	_, err := parscan.Run(v.cfg.scrubWorkers(), len(parts), func(_ *parscan.Worker, c int) error {
		part := &parts[c]
		lo, hi := c*ntSweepPages, (c+1)*ntSweepPages
		if hi > ids {
			hi = ids
		}
		part.NTPagesChecked += hi - lo
		part.SectorsChecked += 2 * NTPageSectors * (hi - lo)
		v.sweepNT(lo, hi, true, func(uint32, []byte) {}, func(id uint32) { v.scrubNTPage(id, part) })
		return nil
	})
	for i := range parts {
		st.merge(parts[i])
	}
	st.NTElapsed = v.clk.Now() - start
	return err
}

// ntCopyOK validates one home copy of a name-table page.
func ntCopyOK(buf []byte, err error) bool {
	return err == nil && (crcOK(buf) || isVirgin(buf))
}

// scrubNTPage re-examines one page the sweep's optimistic, unlocked read
// found damaged or inconsistent, and repairs it — under the cache lock, so
// no concurrent home write can interleave with the repair.
func (v *Volume) scrubNTPage(id uint32, st *ScrubStats) {
	addrA, addrB := v.lay.ntPageAddrs(id)
	c := v.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	bufA, errA := v.readSectorsRetry(addrA, NTPageSectors)
	bufB, errB := v.readSectorsRetry(addrB, NTPageSectors)
	okA, okB := ntCopyOK(bufA, errA), ntCopyOK(bufB, errB)
	repair := func(addr int, good []byte) {
		if v.repairSectors(addr, good, st) == nil {
			st.NTRepaired++
		}
	}
	switch {
	case okA && okB && bytes.Equal(bufA, bufB):
		// Raced with a home writer; consistent now.
	case okA && okB:
		// Both valid but different: a crash between the two copy writes
		// in a previous life. Copy A is always written first, so it is
		// the newer image.
		repair(addrB, bufA)
	case okA:
		repair(addrB, bufA)
	case okB:
		repair(addrA, bufB)
	default:
		// No readable home copy. If the cache holds the page with nothing
		// staged beyond the committed log, its content is exactly the
		// committed state and can rebuild both copies. (Writing it home
		// keeps the WAL discipline: every cached byte not yet committed
		// is excluded by the pendingLog check.)
		if p, ok := c.pages[id]; ok && !p.pendingLog(v.log.Committed()) {
			repair(addrA, p.cur)
			repair(addrB, p.cur)
		} else {
			st.NTLost++
			st.addProblem("name-table page %d: no readable copy (salvage required)", id)
		}
	}
}

// scrubLeaders verifies every file's leader page against its name-table
// entry and rebuilds decayed, rotten, or stale leaders from the entry (the
// name table is authoritative: doubly stored and logged). The snapshot pass
// shares the monitor; each leader is then checked and, if need be, repaired
// under a fresh shared hold, so Create/Delete (exclusive holders) never
// race a repair.
func (v *Volume) scrubLeaders(st *ScrubStats) error {
	type lref struct {
		name string
		ver  uint32
	}
	var refs []lref
	v.rlock()
	err := v.nt.Scan(nil, func(k, _ []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		refs = append(refs, lref{name, ver})
		return true
	})
	v.runlock()
	if err != nil {
		return err
	}
	// The leader walk joins the NT fanout on the same pool: chunks of
	// refs pulled by stealing workers, per-chunk stats merged in chunk
	// order so repairs and problems report deterministically.
	const chunkRefs = 32
	chunks := (len(refs) + chunkRefs - 1) / chunkRefs
	parts := make([]ScrubStats, chunks)
	_, perr := parscan.Run(v.cfg.scrubWorkers(), chunks, func(_ *parscan.Worker, c int) error {
		lo, hi := c*chunkRefs, (c+1)*chunkRefs
		if hi > len(refs) {
			hi = len(refs)
		}
		for _, ref := range refs[lo:hi] {
			if v.closed.Load() {
				return nil
			}
			if err := v.scrubLeader(ref.name, ref.ver, &parts[c]); err != nil {
				return err
			}
		}
		return nil
	})
	for i := range parts {
		st.merge(parts[i])
	}
	return perr
}

func (v *Volume) scrubLeader(name string, ver uint32, st *ScrubStats) error {
	v.rlock()
	defer v.runlock()
	e, err := v.statLocked(name, ver)
	if err != nil {
		return nil // deleted since the snapshot
	}
	addr, has := e.LeaderAddr()
	if !has {
		return nil
	}
	v.lmu.Lock()
	_, pending := v.pendingLeaders[addr]
	v.lmu.Unlock()
	if pending {
		return nil // not home yet; verified from memory on access
	}
	st.LeadersChecked++
	st.SectorsChecked++
	buf, rerr := v.readSectorsRetry(addr, 1)
	v.cpu.Charge(csumCost)
	if rerr == nil && verifyLeader(buf, e) == nil {
		return nil
	}
	if err := v.repairSectors(addr, encodeLeader(e), st); err != nil {
		return err
	}
	st.LeadersRepaired++
	return nil
}

// startScrubber launches the periodic background scrub on real-clock
// volumes when ScrubInterval is set. It shares the ticker's stop channel.
func (v *Volume) startScrubber(stop chan struct{}) {
	interval := v.cfg.ScrubInterval
	if interval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if v.closed.Load() {
					return
				}
				// Background pass: errors surface through FaultStats
				// problems on the next explicit Scrub; a closed volume
				// just ends the loop.
				if _, err := v.Scrub(); errors.Is(err, ErrClosed) {
					return
				}
			case <-stop:
				return
			}
		}
	}()
}
