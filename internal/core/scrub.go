package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
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
	// NTElapsed is the part of Elapsed the name-table pass took, and
	// LeaderElapsed the part the leader pass took.
	NTElapsed     time.Duration
	LeaderElapsed time.Duration
	// The name-table pass's two timelines (DESIGN §17): NTArm is the device's
	// busy time over the pass, NTCPU the processor's — the checksums of the
	// pages compared, as the ScrubWorkers pool's balanced share — and NTHidden
	// how much of NTCPU cost no elapsed time because a transfer was in flight
	// meanwhile. Taken from the volume's counters around the pass, so
	// under live traffic NTArm and NTCPU include the foreground's share.
	NTArm    time.Duration
	NTCPU    time.Duration
	NTHidden time.Duration
}

// Repaired sums all copy rewrites of the pass.
func (st ScrubStats) Repaired() int {
	return st.NTRepaired + st.LeadersRepaired + st.RootsRepaired + st.LogRepaired
}

func (st *ScrubStats) addProblem(format string, args ...interface{}) {
	st.Problems = append(st.Problems, fmt.Sprintf(format, args...))
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
// (the name-table pass serializes only against home writes of a page it has
// to repair, the leader pass shares the monitor for its snapshot and for a
// leader it has to re-examine). Concurrent Scrub calls serialize behind
// scrubMu.
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
	// The clock moves by the arm's time, the foreground's charges and what a
	// join waits for the lane, and nothing else: what the lane hid is the rest.
	arm, cpu := v.d.Stats().BusyTime(), v.cpu.Busy()
	if err := v.scrubNameTable(&st); err != nil {
		return st, err
	}
	st.NTArm, st.NTCPU = v.d.Stats().BusyTime()-arm, v.cpu.Busy()-cpu
	st.NTHidden = st.NTArm + st.NTCPU - st.NTElapsed
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

// ntScrubStretch is how much of the name table the scrub sweeps from copy A
// before it turns to copy B. The copies sit a long seek apart, and sweepNT
// holds both copies of a stretch in memory until its last transfer is in.
// At 512 pages that is 2 MB of buffers, and the two long seeks (≈ 0.14 s with
// their rotational waits) add 8 % to the stretch's 1.8 s of transfer; at one
// 16-page request — what the pass used to issue — they add half, and the
// whole table in one stretch would buffer 16 MB to save the last 5 %.
const ntScrubStretch = 32 * ntSweepPages

// scrubNameTable cross-checks both home copies of every name-table page, a
// stretch at a time: sweepNT reads the stretch's copy A and then its copy B
// in sequential 16-page transfers and the ScrubWorkers pool checks and
// compares them in memory behind the transfers; only a page that reads
// damaged or whose copies disagree is re-examined and repaired on its own
// (scrubNTPage), once the stretch is in. One goroutine drives the pass in page
// order, so the problem report is the same at every ScrubWorkers setting.
// Single-copy volumes have nothing to cross-check.
func (v *Volume) scrubNameTable(st *ScrubStats) error {
	if !v.twoCopies() {
		return nil
	}
	start := v.clk.Now()
	var bufs [][]byte // the pass keeps no page: one stretch's buffers serve the next
	for lo := 0; lo < v.lay.ntPages; lo += ntScrubStretch {
		hi := lo + ntScrubStretch
		if hi > v.lay.ntPages {
			hi = v.lay.ntPages
		}
		st.NTPagesChecked += hi - lo
		st.SectorsChecked += 2 * NTPageSectors * (hi - lo)
		v.sweepNT(lo, hi, true, v.cfg.scrubWorkers(), &bufs, nil, func(uint32, []byte) {}, func(id uint32) { v.scrubNTPage(id, st) })
	}
	st.NTElapsed = v.clk.Now() - start
	return nil
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
		p, cached := c.pages[id]
		switch {
		case cached && !p.pendingLog(v.log.Committed()):
			repair(addrA, p.cur)
			repair(addrB, p.cur)
		case cached:
			// Not lost: home writes are sector-granular, so under live
			// traffic a page's home copies are a mix of sector generations,
			// failing the page CRC, until its other sectors come due. The
			// cache holds the page and the log its images.
		default:
			st.NTLost++
			st.addProblem("name-table page %d: no readable copy (salvage required)", id)
		}
	}
}

// scrubLeaders verifies every file's leader page against its name-table
// entry and rebuilds decayed, rotten, or stale leaders from the entry (the
// name table is authoritative: doubly stored and logged). Like the
// name-table pass it is optimistic first and locked only where it must be.
// One scan under a shared hold of the monitor snapshots every entry with a
// home leader; sweepLeaders reads those leaders in address order with no
// lock held and checks them against the snapshot on the ScrubWorkers pool.
// A leader that verifies is done: agreeing with an entry the table held a
// moment ago calls for no repair, whatever has happened to the file since.
// One that fails to read or to verify — damaged, or its file rewritten,
// extended or deleted since the snapshot — goes down scrubLeader, which
// looks the entry up afresh under the monitor: nothing is ever repaired
// from the snapshot. Suspects are re-examined, and reported, in address
// order.
func (v *Volume) scrubLeaders(st *ScrubStats) error {
	start := v.clk.Now()
	defer func() { st.LeaderElapsed = v.clk.Now() - start }()
	var refs []leaderCheck
	decoded := 0
	v.mu.RLock()
	err := v.nt.Scan(nil, func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		e, err := decodeEntry(name, ver, val)
		if err != nil {
			return true // Verify's to report; there is no leader to find
		}
		decoded++
		if addr, has := e.LeaderAddr(); has {
			refs = append(refs, leaderCheck{addr: addr, e: e})
		}
		return true
	})
	v.mu.RUnlock()
	if err != nil {
		return err
	}
	// Leaders not home yet are verified from memory on access.
	home := refs[:0]
	v.lmu.Lock()
	for _, ref := range refs {
		if _, pending := v.pendingLeaders[ref.addr]; !pending {
			home = append(home, ref)
		}
	}
	v.lmu.Unlock()
	// The scan's decodes, priced as Verify prices them: in the foreground,
	// because the refs must exist before the arm moves. The checksums run
	// behind the reads, on the lane.
	v.cpu.Charge(time.Duration(decoded) * sim.CostBTreeOp / 4)
	errs := sweepLeaders(v.cpu.NewLane(), home, v.cfg.scrubWorkers(), func(addr int) ([]byte, error) {
		if v.closed.Load() {
			return nil, ErrClosed
		}
		return v.d.ReadSectors(addr, 1)
	})
	for i, ref := range home {
		if errs[i] == nil {
			st.LeadersChecked++
			st.SectorsChecked++
			continue
		}
		if v.closed.Load() {
			return nil
		}
		if err := v.scrubLeader(ref.e.Name, ref.e.Version, st); err != nil {
			return err
		}
	}
	return nil
}

// scrubLeader is the leader pass's locked path, for a leader the sweep could
// not vouch for: a shared hold of the monitor, so Create/Delete (exclusive
// holders) never race the repair, a fresh lookup, and a re-read with retries.
func (v *Volume) scrubLeader(name string, ver uint32, st *ScrubStats) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
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
