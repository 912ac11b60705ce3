package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/disk"
	"repro/internal/parscan"
	"repro/internal/sim"
)

// VerifyStats reports what a full-volume verification examined.
type VerifyStats struct {
	Entries        int
	Leaders        int
	LeadersPending int // deferred leaders verified from memory
	Symlinks       int
	// Problems is in canonical order: grouped by name-table entry in key
	// order (the B-tree's scan order), and within an entry in check order
	// (decode, runs, byte size, leader). The order — and every string —
	// is identical at every CheckWorkers setting.
	Problems []string
	Elapsed  time.Duration

	// Parallel-scan accounting (ISSUE 10). Workers is the pool width the
	// pass actually used; Steals counts work-stealing migrations (load
	// balance diagnostics — nondeterministic, excluded from output
	// equality). The phase splits let fsdctl and the pfsck bench separate
	// device time from check CPU.
	Workers       int
	Steals        int
	WalkElapsed   time.Duration // name-table walk + entry snapshot
	CheckElapsed  time.Duration // parallel decode + cross-check phases
	LeaderElapsed time.Duration // leader sweep (ordered reads + checks)
	CheckCPU      time.Duration // total worker CPU across all phases
}

// verifyChunk is the per-entry granularity the pool schedules over: big
// enough that chunk claim overhead vanishes, small enough that stealing
// can rebalance a skewed region (one directory of huge files, say).
const verifyChunk = 256

// vEntry is one snapshot name-table entry being verified.
type vEntry struct {
	name string
	ver  uint32
	e    *Entry // nil when the key or entry failed to decode
	bad  string // the pre-formatted decode problem when e is nil
}

// Verify walks the entire volume checking every invariant the mutually
// checking data structures provide (Section 5.8): B+tree structure, entry
// decodability, run-table sanity (no overlaps, no metadata overlap), and
// the leader page of every file against its name-table entry. It is the
// FSD analogue of fsck — but unlike fsck it is advisory: FSD never needs it
// for recovery.
//
// The scan is parallel (pFSCK-style) across Config.CheckWorkers:
//
//  1. Walk: snapshot every (key, entry) pair from the name table in key
//     order — the only phase that needs the B-tree itself.
//  2. Check: a worker pool decodes entries and claims every data page
//     into a striped owner table (lowest entry index wins a collision),
//     then cross-checks runs against the metadata range, the owner
//     table, and the VAM, and byte sizes against page counts.
//  3. Leaders: a single driver reads every home leader page in ascending
//     disk order — one sequential sweep instead of per-worker seek
//     thrash, and media faults charge the health budget exactly once —
//     and the pool checks the images against their entries.
//
// Problems are accumulated per entry and emitted grouped by entry in key
// order, so the report is byte-identical at every worker count.
func (v *Volume) Verify() (_ VerifyStats, err error) {
	defer v.span("verify")(&err)
	// Exclusive: a whole-volume audit wants a quiescent name table. Log
	// forces (WaitCommitted, the ticker's in-flight tick) can still run,
	// so the shared maps they touch are locked at their use sites below.
	v.mu.Lock()
	defer v.mu.Unlock()
	var st VerifyStats
	if v.closed.Load() {
		return st, ErrClosed
	}
	// With the async pipeline, quiescent also means applied: drain the
	// intent queue so the audit sees every acknowledged mutation.
	if err := v.DrainIntents(); err != nil {
		return st, err
	}
	start := v.clk.Now()
	st.Workers = v.cfg.checkWorkers()
	if err := v.nt.Check(); err != nil {
		return st, fmt.Errorf("core: name table structure: %w", err)
	}

	// Phase 1: snapshot the table in key order. Keys and values alias the
	// cache's page buffers, so the snapshot copies them out; the pool then
	// never touches the B-tree.
	var raw []vEntry
	err = v.nt.Scan(nil, func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			raw = append(raw, vEntry{bad: fmt.Sprintf("undecodable key % x", k)})
			return true
		}
		e, derr := decodeEntry(name, ver, append([]byte(nil), val...))
		ve := vEntry{name: name, ver: ver, e: e}
		if derr != nil {
			ve.e = nil
			ve.bad = fmt.Sprintf("%s!%d: %v", name, ver, derr)
		}
		raw = append(raw, ve)
		return true
	})
	if err != nil {
		return st, err
	}
	st.WalkElapsed = v.clk.Now() - start

	// Phase 2: parallel claim + cross-check over entry chunks. Problems
	// land in per-entry slots — each entry belongs to exactly one chunk,
	// so no two workers write the same slot — and are concatenated in
	// entry order afterwards.
	probs := make([][]string, len(raw))
	owners := parscan.NewOwnerTable(v.lay.total)
	counts := make([]VerifyStats, (len(raw)+verifyChunk-1)/verifyChunk)
	leaderRefs := make([][]leaderCheck, len(counts))
	checkStart := v.clk.Now()

	chunkRange := func(c int) (lo, hi int) {
		lo = c * verifyChunk
		hi = lo + verifyChunk
		if hi > len(raw) {
			hi = len(raw)
		}
		return
	}

	// Pass 2a: decode bookkeeping + page claims. Claims must all land
	// before any worker reads the owner table, so this pass is a barrier.
	claimStats, _ := parscan.Run(st.Workers, len(counts), func(w *parscan.Worker, c int) error {
		lo, hi := chunkRange(c)
		for i := lo; i < hi; i++ {
			ve := raw[i]
			w.Charge(sim.CostBTreeOp / 4)
			if ve.e == nil {
				continue
			}
			for _, r := range ve.e.Runs {
				if int(r.Start)+int(r.Len) > v.lay.total || r.Len == 0 {
					continue // reported in pass 2b
				}
				for p := int(r.Start); p < int(r.Start)+int(r.Len); p++ {
					if !v.lay.metaRange(p) {
						owners.Claim(p, int32(i))
					}
				}
			}
		}
		return nil
	})

	// Pass 2b: the cross-check proper, reading the now-complete owner
	// table. Same chunking, so problems stay with their entries.
	checkStats, _ := parscan.Run(st.Workers, len(counts), func(w *parscan.Worker, c int) error {
		lo, hi := chunkRange(c)
		part := &counts[c]
		addProblem := func(i int, format string, args ...interface{}) {
			probs[i] = append(probs[i], fmt.Sprintf(format, args...))
		}
		for i := lo; i < hi; i++ {
			ve := raw[i]
			if ve.e == nil {
				addProblem(i, "%s", ve.bad)
				continue
			}
			e := ve.e
			part.Entries++
			w.Charge(sim.CostBTreeOp)
			if e.Class == SymLink {
				part.Symlinks++
				if len(e.Runs) != 0 {
					addProblem(i, "%s!%d: symlink with data pages", ve.name, ve.ver)
				}
				continue
			}
			// Run-table sanity: in range, not in metadata, no overlaps,
			// allocated in the VAM.
			for _, r := range e.Runs {
				if int(r.Start)+int(r.Len) > v.lay.total || r.Len == 0 {
					addProblem(i, "%s!%d: run [%d,+%d) out of range", ve.name, ve.ver, r.Start, r.Len)
					continue
				}
				w.Charge(time.Duration(r.Len) * sim.CostChecksumPage)
				v.vmMu.Lock()
				for p := int(r.Start); p < int(r.Start)+int(r.Len); p++ {
					if v.lay.metaRange(p) {
						addProblem(i, "%s!%d: page %d inside metadata", ve.name, ve.ver, p)
						break
					}
					if own := owners.Owner(p); own != int32(i) {
						prev := raw[own]
						addProblem(i, "%s!%d: page %d also owned by %s!%d", ve.name, ve.ver, p, prev.name, prev.ver)
						break
					}
					if v.vm.IsFree(p) {
						addProblem(i, "%s!%d: page %d owned but marked free", ve.name, ve.ver, p)
						break
					}
				}
				v.vmMu.Unlock()
			}
			if e.ByteSize > uint64(e.Pages())*512 {
				addProblem(i, "%s!%d: byte size %d exceeds %d pages", ve.name, ve.ver, e.ByteSize, e.Pages())
			}
			// Leader cross-check: deferred leaders are verified from the
			// in-memory image here; home leaders queue for the ordered
			// disk sweep in phase 3.
			addr, has := e.LeaderAddr()
			if !has {
				continue
			}
			part.Leaders++
			v.lmu.Lock()
			pending, okp := v.pendingLeaders[addr]
			if okp {
				pending = append([]byte(nil), pending...)
			}
			v.lmu.Unlock()
			if okp {
				part.LeadersPending++
				w.Charge(sim.CostChecksumPage)
				if err := verifyLeader(pending, e); err != nil {
					addProblem(i, "%v", err)
				}
				continue
			}
			leaderRefs[c] = append(leaderRefs[c], leaderCheck{addr: addr, e: e, idx: i})
		}
		return nil
	})
	for _, part := range counts {
		st.Entries += part.Entries
		st.Symlinks += part.Symlinks
		st.Leaders += part.Leaders
		st.LeadersPending += part.LeadersPending
	}
	// Charge the pool's CPU critical path — the balanced share, which is
	// deterministic and at one worker equals the sequential total.
	v.cpu.Charge(claimStats.BalancedCPU() + checkStats.BalancedCPU())
	st.CheckCPU += claimStats.TotalCPU() + checkStats.TotalCPU()
	st.Steals += claimStats.Steals() + checkStats.Steals()
	st.CheckElapsed = v.clk.Now() - checkStart

	// Phase 3: the leader sweep — every home leader read by this goroutine
	// in ascending address order, so a damaged sector's retries charge the
	// health budget exactly once however many workers are checking, then
	// verified against its entry on the pool.
	leaderStart := v.clk.Now()
	var refs []leaderCheck
	for _, lr := range leaderRefs {
		refs = append(refs, lr...)
	}
	errs, leaderStats := sweepLeaders(refs, st.Workers, func(addr int) ([]byte, error) {
		buf, retried, rerr := disk.ReadSectorsRetry(v.d, addr, 1, v.cfg.readRetries())
		v.noteReadFault(retried, rerr)
		return buf, rerr
	})
	for j, ref := range refs {
		if errs[j] != nil {
			probs[ref.idx] = append(probs[ref.idx], errs[j].Error())
		}
	}
	v.cpu.Charge(leaderStats.BalancedCPU())
	st.CheckCPU += leaderStats.TotalCPU()
	st.Steals += leaderStats.Steals()
	st.LeaderElapsed = v.clk.Now() - leaderStart

	// Canonical merge: per-entry problem groups concatenated in key order.
	for _, ps := range probs {
		st.Problems = append(st.Problems, ps...)
	}
	st.Elapsed = v.clk.Now() - start
	return st, nil
}

// leaderCheck is one home leader queued for sweepLeaders: its sector, the
// entry it must agree with, and a slot for the caller's own index.
type leaderCheck struct {
	addr int
	e    *Entry
	idx  int
}

// sweepLeaders is the one way a check pass reads leader pages (Verify's
// phase 3, Scrub's leader pass). The disk has one arm, so the pass has one
// reader: refs are sorted by address in place and the calling goroutine
// reads every sector in that order with no processor time charged in
// between — the head crosses the disk once, where a reader in name order, or
// workers sharing the arm, pay a long seek per leader. Only then does a pool
// verify the images against their entries, charging the checksums to the
// returned stats for the caller to put on the clock. errs[i] says what is
// wrong with (the sorted) refs[i], nil if it read and verified. read is the
// caller's fault policy: Verify retries in place and charges the health
// budget, Scrub reads once and leaves the rest to its locked repair path.
func sweepLeaders(refs []leaderCheck, workers int, read func(addr int) ([]byte, error)) (errs []error, _ parscan.Stats) {
	sort.Slice(refs, func(a, b int) bool { return refs[a].addr < refs[b].addr })
	errs = make([]error, len(refs))
	bufs := make([][]byte, len(refs))
	for j, ref := range refs {
		if bufs[j], errs[j] = read(ref.addr); errs[j] != nil {
			errs[j] = fmt.Errorf("%s!%d: leader unreadable: %w", ref.e.Name, ref.e.Version, errs[j])
		}
	}
	stats, _ := parscan.Run(workers, (len(refs)+verifyChunk-1)/verifyChunk, func(w *parscan.Worker, c int) error {
		lo := c * verifyChunk
		hi := lo + verifyChunk
		if hi > len(refs) {
			hi = len(refs)
		}
		for j := lo; j < hi; j++ {
			if errs[j] == nil {
				w.Charge(sim.CostChecksumPage)
				errs[j] = verifyLeader(bufs[j], refs[j].e)
			}
		}
		return nil
	})
	return errs, stats
}
