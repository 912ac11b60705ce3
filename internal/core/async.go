package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/intentq"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wal"
)

// This file is the asynchronous metadata pipeline (Config.AsyncApply; see
// DESIGN.md §13). Mutations validate under the shared monitor plus a
// per-name stripe lock, enqueue a typed intent, and return with their commit
// sequence; the intent queue's single applier performs the deferred B-tree
// updates — which stage WAL records through the name-table cache exactly as
// the synchronous path does — strictly in enqueue order. Readers consult the
// queue's dependency counts (per-file and per-directory key hashes) and wait
// out pending intents that could affect what they read, so every observer
// sees a consistent prefix of the mutation history. WaitCommitted remains
// the only durability promise: it drains the intent up to the acked
// sequence and then forces the log.

// stepOp is one deferred action inside an intent.
type stepOp uint8

const (
	// stepPut writes a name-table entry unconditionally.
	stepPut stepOp = iota
	// stepPutIfPresent writes an entry only if the key still exists; an
	// absent key means an earlier intent deleted the file, so the rest of
	// the intent is abandoned (and its abort steps run). Handle
	// operations use it so a stale handle can never resurrect a deleted
	// entry.
	stepPutIfPresent
	// stepTouch is the read-modify-write LastUsed refresh (cached-file
	// open); absent key abandons the intent.
	stepTouch
	// stepDelete removes an entry; an already-absent key abandons the
	// rest of the intent (its frees must not run twice).
	stepDelete
	// stepFree defers the runs to freeOnCommit. It must follow the steps
	// that stage the covering name-table images, so the commit tag read
	// from the log names their batch.
	stepFree
	// stepInvalidate drops data-cache frames for the runs.
	stepInvalidate
	// stepCancelLeader drops a deferred leader write.
	stepCancelLeader
	// stepLeader stages a leader page image into the log (empty create).
	stepLeader
)

// intentStep carries the arguments of one stepOp; unused fields stay zero.
type intentStep struct {
	op   stepOp
	key  []byte
	val  []byte
	runs []alloc.Run
	addr int
	page []byte
	t    time.Duration
}

// intent is one queued mutation: the operation name (for tracing), the redo
// steps the applier executes in order, and the compensation steps run only
// when a conditional step finds its target gone (e.g. freeing an extension's
// runs when the file was deleted before the extend applied).
//
// done/aborted/abandoned are the applier's progress cursors: the queue may
// re-invoke Apply on the same intent after a retryable error, and steps
// with side effects (stepFree, stepDelete) must not re-run. Only the
// single applier goroutine touches them.
type intent struct {
	op         string
	steps      []intentStep
	abortSteps []intentStep

	done      int  // steps[:done] have completed
	aborted   int  // abortSteps[:aborted] have completed
	abandoned bool // a conditional step found its target gone
}

// async reports whether this volume runs the asynchronous pipeline.
func (v *Volume) async() bool { return v.q != nil }

// startIntentQueue launches the per-volume intent queue and its applier.
// Called at the end of Format/mountWritable when Config.AsyncApply is set;
// read-only mounts never start one. The applier's CPU is permanently
// detached: its work accumulates in ApplierBusy without advancing the
// simulated clock, modelling a core dedicated to the pipeline.
func (v *Volume) startIntentQueue() {
	v.apCPU = sim.NewCPU(v.clk)
	v.apCPU.SetDetached(true)
	v.q = intentq.New(v.clk, intentq.Config{
		MaxDepth: v.cfg.intentQueueDepth(),
		Apply:    v.applyIntent,
		// A damaged-sector error can clear on another revolution (the
		// transient classes of the fault model); anything else — layout
		// bugs, a halted device — retrying cannot fix.
		Retryable: func(err error) bool {
			var de *disk.DamagedError
			return errors.As(err, &de)
		},
		RetryBudget: v.cfg.writeRetries(),
		// Fatal: the pipeline can no longer promise that acknowledged
		// intents reach the log, so stop accepting mutations. The queue
		// has already drained itself; readers keep serving.
		OnFatal: func(err error) {
			v.obs.queueDepth.Set(0)
			v.degradeTo(HealthReadOnly, "intent applier failed: "+err.Error())
		},
		OnApplied: func(op any, seq uint64, lag time.Duration, depth int) {
			v.obs.applyLag.ObserveDuration(lag)
			v.obs.queueDepth.Set(int64(depth))
			if v.obs.tracer.Enabled() {
				name := ""
				if it, ok := op.(*intent); ok {
					name = it.op
				}
				v.obs.tracer.Emit(obs.Event{
					Time: v.clk.Now(), Kind: obs.EvIntentApply, Op: name,
					OK: true, A: int64(seq), B: int64(lag), C: int64(depth),
				})
			}
		},
		OnWait: func(kind, key string) {
			if v.obs.tracer.Enabled() {
				v.obs.tracer.Emit(obs.Event{
					Time: v.clk.Now(), Kind: obs.EvIntentWait, Op: kind, OK: true,
				})
			}
		},
	})
}

// stopIntentQueue drains (unless crashing) and closes the queue. Callers
// hold the monitor exclusively.
func (v *Volume) stopIntentQueue(drain bool) error {
	if v.q == nil {
		return nil
	}
	var err error
	if drain {
		err = v.q.Drain()
	}
	v.q.Close()
	return err
}

// DrainIntents blocks until every intent enqueued so far has been applied
// (a no-op without the async pipeline). It makes nothing durable — pair it
// with WaitCommitted or Force for that.
func (v *Volume) DrainIntents() error {
	if v.q == nil {
		return nil
	}
	return v.q.Drain()
}

// IntentDepth returns the current unapplied-intent count (0 without the
// pipeline).
func (v *Volume) IntentDepth() int {
	if v.q == nil {
		return 0
	}
	return v.q.Depth()
}

// IntentQueueLimit returns the configured intent-queue depth cap, the
// denominator of the backpressure signal; 0 when the volume runs the
// staged path.
func (v *Volume) IntentQueueLimit() int {
	if v.q == nil {
		return 0
	}
	return v.cfg.intentQueueDepth()
}

// enqueueIntent hands a validated mutation to the applier and returns its
// intent sequence — the volume's commit sequence in async mode.
func (v *Volume) enqueueIntent(it *intent, names ...string) (uint64, error) {
	seq := v.q.Enqueue(it, names...)
	if seq == 0 {
		return 0, ErrClosed
	}
	depth := v.q.Depth()
	v.obs.queueDepth.Set(int64(depth))
	if v.obs.tracer.Enabled() {
		v.obs.tracer.Emit(obs.Event{
			Time: v.clk.Now(), Kind: obs.EvIntentEnqueue, Op: it.op, OK: true,
			A: int64(seq), B: int64(depth),
		})
	}
	return seq, nil
}

// waitName blocks a reader (or validating writer) until no pending intent
// touches name. No-op without the pipeline.
func (v *Volume) waitName(name string) error {
	if v.q == nil {
		return nil
	}
	return v.q.WaitName(name)
}

// waitPrefix blocks a scan until no pending intent could affect names under
// prefix. No-op without the pipeline.
func (v *Volume) waitPrefix(prefix string) error {
	if v.q == nil {
		return nil
	}
	return v.q.WaitPrefix(prefix)
}

// applyIntent is the queue's apply callback: it executes one intent's steps
// in order on the applier goroutine. B-tree updates go straight to the tree
// (which stages WAL images through the name-table cache) with their CPU cost
// charged to the detached applier CPU. A conditional step whose target is
// gone abandons the intent and runs its abort steps; real errors propagate
// to the queue, which retries retryable ones (this function resumes at the
// failed step via the intent's progress cursors) and fails the volume over
// to read-only on fatal ones.
func (v *Volume) applyIntent(op any) error {
	it := op.(*intent)
	if !it.abandoned {
		for it.done < len(it.steps) {
			ok, err := v.applyStep(it.steps[it.done])
			if err != nil {
				return err
			}
			it.done++
			if !ok {
				it.abandoned = true
				break
			}
		}
	}
	if it.abandoned {
		return v.applyAbort(it)
	}
	return nil
}

func (v *Volume) applyAbort(it *intent) error {
	for it.aborted < len(it.abortSteps) {
		if _, err := v.applyStep(it.abortSteps[it.aborted]); err != nil {
			return err
		}
		it.aborted++
	}
	return nil
}

// applyStep runs one step; ok=false means a conditional step found its
// target absent and the intent should be abandoned.
func (v *Volume) applyStep(st intentStep) (bool, error) {
	switch st.op {
	case stepPut:
		v.apCPU.Charge(sim.CostBTreeOp)
		return true, v.nt.Put(st.key, st.val)
	case stepPutIfPresent:
		v.apCPU.Charge(sim.CostBTreeOp)
		if _, err := v.nt.Get(st.key); err != nil {
			if errors.Is(err, btree.ErrNotFound) {
				return false, nil
			}
			return false, err
		}
		v.apCPU.Charge(sim.CostBTreeOp)
		return true, v.nt.Put(st.key, st.val)
	case stepTouch:
		v.apCPU.Charge(sim.CostBTreeOp)
		val, err := v.nt.Get(st.key)
		if err != nil {
			if errors.Is(err, btree.ErrNotFound) {
				return false, nil
			}
			return false, err
		}
		name, ver, okKey := splitKey(st.key)
		if !okKey {
			return false, fmt.Errorf("core: intent touch on malformed key %q", st.key)
		}
		e, err := decodeEntry(name, ver, val)
		if err != nil {
			return false, err
		}
		e.LastUsed = st.t
		v.apCPU.Charge(sim.CostBTreeOp)
		return true, v.nt.Put(st.key, encodeEntry(e))
	case stepDelete:
		v.apCPU.Charge(sim.CostBTreeOp)
		if err := v.nt.Delete(st.key); err != nil {
			if errors.Is(err, btree.ErrNotFound) {
				return false, nil
			}
			return false, err
		}
		return true, nil
	case stepFree:
		v.freeOnCommit(st.runs)
		return true, nil
	case stepInvalidate:
		v.invalidateData(st.runs)
		return true, nil
	case stepCancelLeader:
		v.lmu.Lock()
		delete(v.pendingLeaders, st.addr)
		delete(v.leaderThird, st.addr)
		v.lmu.Unlock()
		return true, nil
	case stepLeader:
		_, err := v.log.Append(wal.PageImage{
			Kind: wal.KindLeader, Target: uint64(st.addr), Data: st.page,
		})
		return true, err
	default:
		return false, fmt.Errorf("core: unknown intent step %d", st.op)
	}
}

// ---- async operation variants -------------------------------------------
//
// Each mirrors its synchronous twin in file.go/bytes.go: same validation,
// same errors, same CPU charges on the caller — but the monitor is taken in
// read mode, the per-name stripe lock serializes validators of the same
// name, and the B-tree/cache work rides the intent queue.

func (v *Volume) createClassAsync(name string, data []byte, class Class, linkTarget string) (*File, error) {
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return nil, err
	}
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	release := v.q.LockNames(name)
	defer release()
	if err := v.waitName(name); err != nil {
		return nil, err
	}
	highest, err := v.highestVersionLocked(name)
	if err != nil {
		return nil, err
	}
	var keep uint16
	if highest > 0 {
		if prev, err := v.statLocked(name, highest); err == nil {
			keep = prev.Keep
		}
	}
	v.cpu.Charge(sim.CostFileCreate)
	e := &Entry{
		Name:       name,
		Version:    highest + 1,
		Class:      class,
		Keep:       keep,
		UID:        v.nextUID(),
		ByteSize:   uint64(len(data)),
		CreateTime: v.clk.Now(),
		LastUsed:   v.clk.Now(),
		LinkTarget: linkTarget,
	}
	if class != SymLink {
		pages := 1 + (len(data)+disk.SectorSize-1)/disk.SectorSize // leader + data
		v.vmMu.Lock()
		e.Runs, err = v.al.Alloc(pages)
		v.vmMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	// The applier cannot refuse an entry (see entryFits): a link target or
	// a fragmented allocation too long for a cell fails here.
	if err := entryFits(e); err != nil {
		v.freeNow(e.Runs)
		return nil, err
	}
	it := &intent{op: "create"}
	it.steps = append(it.steps, intentStep{op: stepPut, key: entryKey(name, e.Version), val: encodeEntry(e)})
	if class != SymLink {
		leader := encodeLeader(e)
		if len(data) > 0 {
			// The data write stays on the caller: read-your-writes holds
			// without queue involvement, and the pages are on the platter
			// before the entry's images can stage — preserving the force's
			// data-before-record barrier.
			if err := v.writeLeaderAndData(e, leader, data); err != nil {
				v.freeNow(e.Runs)
				return nil, err
			}
		} else {
			// Empty file: register the deferred leader now so reads (and
			// the WAL's OnLogged tagging) can see it; the log staging of
			// its image rides the intent.
			addr, _ := e.LeaderAddr()
			v.lmu.Lock()
			v.pendingLeaders[addr] = leader
			v.lmu.Unlock()
			it.steps = append(it.steps, intentStep{op: stepLeader, addr: addr, page: leader})
		}
	}
	if keep > 0 && uint32(keep) < e.Version {
		// Resolve the doomed old versions here, under the stripe — the
		// applier then replays pure redo steps.
		cutoff := e.Version - uint32(keep)
		var doomed []*Entry
		prefix := namePrefix(name)
		err := v.nt.Scan(prefix, func(k, val []byte) bool {
			n, ver, okKey := splitKey(k)
			if !okKey || n != name {
				return false
			}
			if ver <= cutoff {
				if de, derr := decodeEntry(n, ver, val); derr == nil {
					doomed = append(doomed, de)
				}
			}
			return true
		})
		if err != nil {
			v.freeNow(e.Runs)
			return nil, err
		}
		for _, de := range doomed {
			it.steps = append(it.steps, intentStep{op: stepDelete, key: entryKey(name, de.Version)})
			if len(de.Runs) > 0 {
				addr, _ := de.LeaderAddr()
				it.steps = append(it.steps,
					intentStep{op: stepCancelLeader, addr: addr},
					intentStep{op: stepFree, runs: de.Runs},
					intentStep{op: stepInvalidate, runs: de.Runs})
			}
		}
	}
	v.ops.creates.Add(1)
	if _, err := v.enqueueIntent(it, name); err != nil {
		v.freeNow(e.Runs)
		return nil, err
	}
	return &File{v: v, e: *e, leaderVerified: true}, nil
}

func (v *Volume) touchAsync(name string, version uint32) error {
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	release := v.q.LockNames(name)
	defer release()
	if err := v.waitName(name); err != nil {
		return err
	}
	e, err := v.statLocked(name, version)
	if err != nil {
		return err
	}
	e.LastUsed = v.clk.Now()
	v.ops.touches.Add(1)
	it := &intent{op: "touch", steps: []intentStep{
		{op: stepPut, key: entryKey(e.Name, e.Version), val: encodeEntry(e)},
	}}
	_, err = v.enqueueIntent(it, name)
	return err
}

func (v *Volume) setKeepAsync(name string, keep uint16) error {
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	release := v.q.LockNames(name)
	defer release()
	if err := v.waitName(name); err != nil {
		return err
	}
	e, err := v.statLocked(name, 0)
	if err != nil {
		return err
	}
	e.Keep = keep
	it := &intent{op: "setkeep", steps: []intentStep{
		{op: stepPut, key: entryKey(e.Name, e.Version), val: encodeEntry(e)},
	}}
	_, err = v.enqueueIntent(it, name)
	return err
}

func (v *Volume) deleteAsync(name string, version uint32) error {
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	release := v.q.LockNames(name)
	defer release()
	if err := v.waitName(name); err != nil {
		return err
	}
	if version == 0 {
		var err error
		version, err = v.highestVersionLocked(name)
		if err != nil {
			return err
		}
		if version == 0 {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
	}
	e, err := v.statLocked(name, version)
	if err != nil {
		return err
	}
	it := &intent{op: "delete", steps: []intentStep{
		{op: stepDelete, key: entryKey(name, version)},
	}}
	if len(e.Runs) > 0 {
		addr, _ := e.LeaderAddr()
		it.steps = append(it.steps,
			intentStep{op: stepCancelLeader, addr: addr},
			intentStep{op: stepFree, runs: e.Runs},
			intentStep{op: stepInvalidate, runs: e.Runs})
	}
	v.ops.deletes.Add(1)
	_, err = v.enqueueIntent(it, name)
	return err
}

func (v *Volume) renameAsync(oldName, newName string) error {
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	if err := ValidateName(newName); err != nil {
		return err
	}
	release := v.q.LockNames(oldName, newName)
	defer release()
	if err := v.waitName(oldName); err != nil {
		return err
	}
	if err := v.waitName(newName); err != nil {
		return err
	}
	if hi, err := v.highestVersionLocked(newName); err != nil {
		return err
	} else if hi != 0 {
		return fmt.Errorf("%w: %q", ErrExists, newName)
	}
	var versions []uint32
	prefix := namePrefix(oldName)
	err := v.nt.Scan(prefix, func(k, _ []byte) bool {
		n, ver, okKey := splitKey(k)
		if !okKey || n != oldName {
			return false
		}
		versions = append(versions, ver)
		return true
	})
	if err != nil {
		return err
	}
	if len(versions) == 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, oldName)
	}
	it := &intent{op: "rename"}
	for _, ver := range versions {
		e, err := v.statLocked(oldName, ver)
		if err != nil {
			return err
		}
		e.Name = newName
		it.steps = append(it.steps,
			intentStep{op: stepPut, key: entryKey(newName, ver), val: encodeEntry(e)},
			intentStep{op: stepDelete, key: entryKey(oldName, ver)})
		v.cpu.Charge(2 * csumCost)
	}
	_, err = v.enqueueIntent(it, oldName, newName)
	return err
}

func (f *File) extendAsync(morePages int) error {
	v := f.v
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Serialize with the name-based mutators: touch/setKeep/rename enqueue
	// whole-entry snapshot puts resolved at validation time, so an extend
	// enqueued between such a validation and its enqueue would have its
	// run-table update silently overwritten — the allocator and the tree
	// diverge and the new pages leak. Holding the stripe and draining the
	// name's pending intents makes snapshot puts safe in both directions.
	release := v.q.LockNames(f.e.Name)
	defer release()
	if err := v.waitName(f.e.Name); err != nil {
		return err
	}
	e, grown, err := v.grow(&f.e, morePages)
	if err != nil {
		return err
	}
	// Refresh the leader's run-table image eagerly (reads of this handle
	// verify against the pending copy) and stage it through the intent so
	// the log sees it in order with the entry update.
	leaderAddr, haveLeader := e.LeaderAddr()
	var leader []byte
	if haveLeader {
		leader = encodeLeader(&e)
		v.lmu.Lock()
		v.pendingLeaders[leaderAddr] = leader
		v.lmu.Unlock()
	}
	// If the file is deleted before this applies, the delete intent freed
	// the pre-extension runs; the abort steps release the new ones and
	// drop the now-orphaned pending leader.
	it := &intent{
		op: "extend",
		steps: []intentStep{
			{op: stepPutIfPresent, key: entryKey(e.Name, e.Version), val: encodeEntry(&e)},
		},
		abortSteps: []intentStep{{op: stepFree, runs: grown}},
	}
	if haveLeader {
		it.steps = append(it.steps, intentStep{op: stepLeader, addr: leaderAddr, page: leader})
		it.abortSteps = append(it.abortSteps, intentStep{op: stepCancelLeader, addr: leaderAddr})
	}
	if _, err := v.enqueueIntent(it, e.Name); err != nil {
		v.freeNow(grown)
		return err
	}
	f.e = e
	return nil
}

func (f *File) contractAsync(newPages int) error {
	v := f.v
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Stripe + drain before snapshotting f.e, for the same reason as
	// extendAsync: a name-op snapshot put must not clobber this intent's
	// run-table update (or vice versa).
	release := v.q.LockNames(f.e.Name)
	defer release()
	if err := v.waitName(f.e.Name); err != nil {
		return err
	}
	if newPages < 0 || newPages > f.e.Pages() {
		return fmt.Errorf("core: contract to %d pages of %d", newPages, f.e.Pages())
	}
	keepSectors := newPages + 1 // leader stays
	e := f.e
	var kept []alloc.Run
	var freed []alloc.Run
	for _, r := range e.Runs {
		if keepSectors >= int(r.Len) {
			kept = append(kept, r)
			keepSectors -= int(r.Len)
		} else if keepSectors > 0 {
			kept = append(kept, alloc.Run{Start: r.Start, Len: uint32(keepSectors)})
			freed = append(freed, alloc.Run{Start: r.Start + uint32(keepSectors), Len: r.Len - uint32(keepSectors)})
			keepSectors = 0
		} else {
			freed = append(freed, r)
		}
	}
	e.Runs = kept
	if e.ByteSize > uint64(newPages*disk.SectorSize) {
		e.ByteSize = uint64(newPages * disk.SectorSize)
	}
	// Refresh the leader image for the trimmed run table; see extendAsync.
	leaderAddr, haveLeader := e.LeaderAddr()
	var leader []byte
	if haveLeader {
		leader = encodeLeader(&e)
		v.lmu.Lock()
		v.pendingLeaders[leaderAddr] = leader
		v.lmu.Unlock()
	}
	// No free abort steps: if an earlier delete won, it already freed the
	// whole file including this tail — freeing again would corrupt the
	// allocator. Only the orphaned pending leader needs cancelling.
	it := &intent{op: "contract", steps: []intentStep{
		{op: stepPutIfPresent, key: entryKey(e.Name, e.Version), val: encodeEntry(&e)},
		{op: stepFree, runs: freed},
		{op: stepInvalidate, runs: freed},
	}}
	if haveLeader {
		it.steps = append(it.steps, intentStep{op: stepLeader, addr: leaderAddr, page: leader})
		it.abortSteps = append(it.abortSteps, intentStep{op: stepCancelLeader, addr: leaderAddr})
	}
	if _, err := v.enqueueIntent(it, e.Name); err != nil {
		return err
	}
	f.e = e
	return nil
}

func (f *File) setByteSizeAsync(n uint64) error {
	v := f.v
	v.rlock()
	defer v.runlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Stripe + drain before snapshotting f.e; see extendAsync.
	release := v.q.LockNames(f.e.Name)
	defer release()
	if err := v.waitName(f.e.Name); err != nil {
		return err
	}
	if n > uint64(f.e.Pages())*disk.SectorSize {
		return fmt.Errorf("core: byte size %d exceeds %d allocated pages", n, f.e.Pages())
	}
	e := f.e
	e.ByteSize = n
	it := &intent{op: "setbytesize", steps: []intentStep{
		{op: stepPutIfPresent, key: entryKey(e.Name, e.Version), val: encodeEntry(&e)},
	}}
	if _, err := v.enqueueIntent(it, e.Name); err != nil {
		return err
	}
	f.e = e
	return nil
}
