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
	CheckElapsed  time.Duration // claim pass, then cross-check beside the leader reads
	LeaderElapsed time.Duration // leader images verified, after both have finished
	CheckCPU      time.Duration // total worker CPU across all phases

	// The pass's two timelines (DESIGN §17): Arm is the device's busy time
	// over the pass (the walk's page reads and the leader sweep), CheckCPU /
	// Workers the pool's, and Hidden how much of the pool's share cost no
	// elapsed time because the arm was sweeping the leaders meanwhile.
	Arm    time.Duration
	Hidden time.Duration
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
//  2. Claim: a worker pool decodes entries, claims every data page into a
//     striped owner table (lowest entry index wins a collision) and sorts
//     the leaders into home (on the disk) and deferred (still in memory).
//  3. Check beside the leader sweep: the pool cross-checks runs against the
//     metadata range, the owner table, and the VAM, byte sizes against
//     page counts and deferred leaders against their images — while this
//     goroutine, the pass's one reader, reads every home leader page in
//     ascending disk order: one sequential sweep instead of per-worker
//     seek thrash, and media faults charge the health budget exactly once.
//  4. Leaders: the pool checks the images read against their entries.
//
// Phases 2 to 4 run on parscan.Overlap, the pool's share on the clock's
// lane: phase 3 costs the larger of the cross-check and the sweep.
//
// Problems are accumulated per entry and emitted grouped by entry in key
// order, so the report is byte-identical at every worker count.
func (v *Volume) Verify() (_ VerifyStats, err error) {
	defer v.span("verify")(&err)
	// Exclusive: a whole-volume audit wants a quiescent name table. Log
	// forces (WaitCommitted from another goroutine) can still run,
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
	start, armStart := v.clk.Now(), v.d.Stats().BusyTime()
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

	// Phases 2-4 work over entry chunks. Problems land in per-entry slots —
	// each entry belongs to exactly one chunk, so no two workers write the
	// same slot — and are concatenated in entry order afterwards.
	probs := make([][]string, len(raw))
	owners := parscan.NewOwnerTable(v.lay.total)
	nchunks := verifyChunks(len(raw))
	counts := make([]VerifyStats, nchunks)
	home := make([][]leaderCheck, nchunks) // per chunk: leaders to read from the disk
	deferred := make([][]byte, len(raw))   // per entry: the image of a leader not home yet
	checkStart := v.clk.Now()

	// Phase 2: decode bookkeeping, page claims, and which leaders the sweep
	// has to read. Claims must all land before any worker reads the owner
	// table, so this pass is a barrier.
	claim := func(w *parscan.Worker, c int) {
		lo, hi := verifyChunkRange(c, len(raw))
		for i := lo; i < hi; i++ {
			ve := raw[i]
			w.Charge(sim.CostBTreeOp / 4)
			if ve.e == nil {
				continue
			}
			for _, r := range ve.e.Runs {
				if int(r.Start)+int(r.Len) > v.lay.total || r.Len == 0 {
					continue // reported by the cross-check
				}
				for p := int(r.Start); p < int(r.Start)+int(r.Len); p++ {
					if !v.lay.metaRange(p) {
						owners.Claim(p, int32(i))
					}
				}
			}
			addr, has := ve.e.LeaderAddr()
			if !has || ve.e.Class == SymLink {
				continue
			}
			v.lmu.Lock()
			img, pending := v.pendingLeaders[addr]
			if pending {
				img = append(make([]byte, 0, len(img)), img...)
			}
			v.lmu.Unlock()
			if pending {
				deferred[i] = img
			} else {
				home[c] = append(home[c], leaderCheck{addr: addr, e: ve.e, idx: i})
			}
		}
	}

	// Phase 3, the pool's half: the cross-check proper, reading the
	// now-complete owner table. Same chunking, so problems stay with their
	// entries.
	crossCheck := func(w *parscan.Worker, c int) {
		lo, hi := verifyChunkRange(c, len(raw))
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
			// Leader cross-check: a deferred leader is verified from its
			// in-memory image here; a home leader is on the sweep's list.
			if _, has := e.LeaderAddr(); !has {
				continue
			}
			part.Leaders++
			if img := deferred[i]; img != nil {
				part.LeadersPending++
				w.Charge(sim.CostChecksumPage)
				if err := verifyLeader(img, e); err != nil {
					addProblem(i, "%v", err)
				}
			}
		}
	}

	// Phase 3, the driver's half: every home leader read by this goroutine
	// in ascending address order, so a damaged sector's retries charge the
	// health budget exactly once however many workers are checking.
	var refs []leaderCheck
	var images [][]byte
	var errs []error
	sweep := func() {
		for _, lr := range home {
			refs = append(refs, lr...)
		}
		sortLeaders(refs)
		images, errs = make([][]byte, len(refs)), make([]error, len(refs))
		readLeaders(refs, images, errs, func(addr int) ([]byte, error) {
			buf, retried, rerr := disk.ReadSectorsRetry(v.d, addr, 1, v.cfg.readRetries())
			v.noteReadFault(retried, rerr)
			return buf, rerr
		})
	}

	lane := v.cpu.NewLane()
	const phaseClaim, phaseCheck, phaseLeaders = 0, 1, 2
	_ = parscan.Overlap(lane, st.Workers, 3, 1,
		func(phase int) (int, error) {
			if phase < phaseLeaders {
				return nchunks, nil
			}
			sweep() // beside the cross-check
			return verifyChunks(len(refs)), nil
		},
		func(phase int, w *parscan.Worker, c int) {
			switch phase {
			case phaseClaim:
				claim(w, c)
			case phaseCheck:
				crossCheck(w, c)
			case phaseLeaders:
				checkLeaders(w, c, refs, images, errs)
			}
		},
		func(phase int, ps parscan.Stats) error {
			st.CheckCPU += ps.TotalCPU()
			st.Steals += ps.Steals()
			if phase == phaseCheck {
				st.CheckElapsed = v.clk.Now() - checkStart
			}
			return nil
		})
	st.LeaderElapsed = v.clk.Now() - checkStart - st.CheckElapsed
	for _, part := range counts {
		st.Entries += part.Entries
		st.Symlinks += part.Symlinks
		st.Leaders += part.Leaders
		st.LeadersPending += part.LeadersPending
	}
	for j, ref := range refs {
		if errs[j] != nil {
			probs[ref.idx] = append(probs[ref.idx], errs[j].Error())
		}
	}
	st.Arm = v.d.Stats().BusyTime() - armStart
	st.Hidden = lane.Hidden()

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

// The one way a check pass reads leader pages (Verify's phases 3 and 4,
// Scrub's leader pass). The disk has one arm, so the pass has one reader:
// the calling goroutine sorts refs by address (sortLeaders) and readLeaders
// reads them — all, or a stretch of them — in that order with no processor
// time charged in between: the head crosses the disk once, where a reader in
// name order, or workers sharing the arm, pay a long seek per leader. errs[j]
// says what is wrong with (the sorted) refs[j], nil if it read. read is the
// caller's fault policy: Verify retries in place and charges the health
// budget, Scrub reads once and leaves the rest to its locked repair path.
func sortLeaders(refs []leaderCheck) {
	sort.Slice(refs, func(a, b int) bool { return refs[a].addr < refs[b].addr })
}

func readLeaders(refs []leaderCheck, images [][]byte, errs []error, read func(addr int) ([]byte, error)) {
	for j, ref := range refs {
		if images[j], errs[j] = read(ref.addr); errs[j] != nil {
			errs[j] = fmt.Errorf("%s!%d: leader unreadable: %w", ref.e.Name, ref.e.Version, errs[j])
		}
	}
}

// verifyChunks is how many pool chunks n entries (or leader images) make,
// and verifyChunkRange the items [lo, hi) of chunk c.
func verifyChunks(n int) int { return (n + verifyChunk - 1) / verifyChunk }

func verifyChunkRange(c, n int) (lo, hi int) {
	lo = c * verifyChunk
	return lo, min(lo+verifyChunk, n)
}

// checkLeaders is the pool's chunk function over what readLeaders read: each
// image that read is verified against its entry, the checksum charged to the
// worker and the verdict left in errs.
func checkLeaders(w *parscan.Worker, c int, refs []leaderCheck, images [][]byte, errs []error) {
	lo, hi := verifyChunkRange(c, len(refs))
	for j := lo; j < hi; j++ {
		if errs[j] == nil {
			w.Charge(sim.CostChecksumPage)
			errs[j] = verifyLeader(images[j], refs[j].e)
		}
	}
}

// sweepLeaders is the two as one overlapped pass, for a pass with nothing
// else to do beside the reads (parscan.Overlap): the sorted refs go by in
// stretches of one chunk, and while the pool checks stretch i the caller is
// reading stretch i+1 — the checksums ride the lane.
func sweepLeaders(lane *sim.Lane, refs []leaderCheck, workers int, read func(addr int) ([]byte, error)) (errs []error) {
	sortLeaders(refs)
	images, errs := make([][]byte, len(refs)), make([]error, len(refs))
	_ = parscan.Overlap(lane, workers, verifyChunks(len(refs)), 1,
		func(i int) (int, error) {
			lo, hi := verifyChunkRange(i, len(refs))
			readLeaders(refs[lo:hi], images[lo:hi], errs[lo:hi], read)
			return 1, nil
		},
		func(i int, w *parscan.Worker, _ int) { checkLeaders(w, i, refs, images, errs) },
		func(i int, _ parscan.Stats) error {
			lo, hi := verifyChunkRange(i, len(refs))
			clear(images[lo:hi])
			return nil
		})
	return errs
}
