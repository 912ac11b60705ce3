package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/intentq"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wal"
)

// This file is the one path of a name-space mutation (DESIGN.md §13). An
// operation validates under the monitor and builds an intent — a short list
// of steps — and hands it off (submit): a volume running the asynchronous
// pipeline (Config.AsyncApply) enqueues it for the intent queue's single
// applier and returns with its commit sequence; any other applies it on the
// spot, which is the same pipeline at queue depth 0. Either way the same
// apply does the work, once, inside one WAL group, so a force — and
// therefore a crash — sees all of an intent or none of it.
//
// On the queue, intents apply strictly in enqueue order. Readers consult the
// queue's dependency counts (per-file and per-directory key hashes) and wait
// out pending intents that could affect what they read, so every observer
// sees a consistent prefix of the mutation history. WaitCommitted remains
// the only durability promise: it drains the queue up to the acked sequence
// and then forces the log.

// intentQueueDepth bounds the unapplied intents of an AsyncApply volume;
// mutations block (backpressure) at the cap.
const intentQueueDepth = 512

// stepOp is one action inside an intent.
type stepOp uint8

const (
	// stepPut writes a name-table entry. Its builder has seen to it that
	// the write is wanted: a handle operation's, that the handle's file is
	// still there (see current).
	stepPut stepOp = iota
	// stepTouch is the read-modify-write LastUsed refresh of a cached-file
	// open, which holds no lock that keeps a delete from getting in first;
	// an absent key abandons the intent.
	stepTouch
	// stepDelete removes an entry; an already-absent key abandons the
	// rest of the intent (its frees must not run twice).
	stepDelete
	// stepFree defers the runs to freeOnCommit and drops their data-cache
	// frames (the sectors may go to another file after the commit, and a
	// stale hit would serve the old bytes). It must follow the steps that
	// stage the covering name-table images, so the commit tag read from
	// the log names their batch. A deleted file's step carries its leader
	// in addr (0, the root's sector, for none), whose deferred write the
	// same commit drops.
	stepFree
	// stepLeader makes data the pending leader image of sector addr — what
	// reads verify against and third-crossing flushes write home — and
	// stages it into the log.
	stepLeader
)

// intentStep carries the arguments of one stepOp; unused fields stay zero.
// cost is what applying it charges, in units of sim.CostBTreeOp, to the
// processor that applies it — the caller's inline, the detached applier's
// on the queue. The values are what the staged path has always charged, so
// that its simulated time does not move.
type intentStep struct {
	op   stepOp
	cost uint8
	key  []byte
	data []byte // entry value (puts) or leader page image (stepLeader)
	runs []alloc.Run
	addr int
	t    time.Duration
}

// intent is one mutation: the operation name (for tracing), the names it
// touches (the queue's dependency keys; the second is rename's), and the redo
// steps applied in order.
type intent struct {
	op    string
	names [2]string
	steps []intentStep
	buf   [4]intentStep // where steps starts out

	// fe, set by the handle operations, is the entry the handle holds once
	// the intent has been accepted.
	fe *Entry
}

func newIntent(op string, names [2]string) *intent {
	it := &intent{op: op, names: names}
	it.steps = it.buf[:0]
	return it
}

// touched lists the names the intent depends on.
func (it *intent) touched() []string {
	if it.names[1] == "" {
		return it.names[:1]
	}
	return it.names[:]
}

func (it *intent) add(st intentStep) { it.steps = append(it.steps, st) }

// put adds the unconditional write of e.
func (it *intent) put(e *Entry) {
	it.add(intentStep{op: stepPut, cost: 1, key: entryKey(e.Name, e.Version), data: encodeEntry(e)})
}

// remove adds the deletion of e: the entry, then the deferred leader write
// and the pages of a file that has any. cost is what the delete step charges.
func (it *intent) remove(e *Entry, cost uint8) {
	it.add(intentStep{op: stepDelete, cost: cost, key: entryKey(e.Name, e.Version)})
	if addr, ok := e.LeaderAddr(); ok {
		it.add(intentStep{op: stepFree, runs: e.Runs, addr: addr})
	}
}

// update adds a handle operation's write of its changed entry and makes e
// the handle's entry.
func (it *intent) update(e *Entry) {
	it.put(e)
	it.fe = e
}

// leader adds the staging of e's leader page image: an empty create's, whose
// leader write is deferred, or the refresh after a run-table change — without
// which the cross-check would flag every extended file as corrupt once the
// original (create-time) leader reached the platter.
func (it *intent) leader(e *Entry) {
	if addr, ok := e.LeaderAddr(); ok {
		it.add(intentStep{op: stepLeader, addr: addr, data: encodeLeader(e)})
	}
}

// async reports whether this volume runs the asynchronous pipeline.
func (v *Volume) async() bool { return v.q != nil }

// mutate is the path every name-space mutation takes. It owns the span, the
// monitor — exclusive on a staged volume; shared on an asynchronous one, with
// the per-name stripe locks serializing validators of the same name and the
// names' pending intents waited out, so that build validates against, and
// snapshots, settled entries — beginMutate, the handle lock of a handle
// operation (f, whose name is then the one touched, and whose file must
// still be there: see current), and the hand-off. build validates, charges
// the caller's CPU for what it looks up, and adds steps; whatever it
// allocates it must free again if it fails.
func (v *Volume) mutate(op string, f *File, names [2]string, build func(it *intent) error) (err error) {
	defer v.spanEnd(op, v.clk.Now(), &err)
	if v.async() {
		v.mu.RLock()
		defer v.mu.RUnlock()
	} else {
		v.mu.Lock()
		defer v.mu.Unlock()
	}
	if err := v.beginMutate(); err != nil {
		return err
	}
	if f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		names[0] = f.e.Name
	}
	it := newIntent(op, names)
	if v.async() {
		defer v.q.LockNames(it.touched()...)()
		for _, name := range it.touched() {
			if err := v.q.WaitName(name); err != nil {
				return err
			}
		}
	}
	if f != nil {
		if err := v.current(&f.e); err != nil {
			return err
		}
	}
	if err := build(it); err != nil {
		return err
	}
	if len(it.steps) == 0 {
		return nil // build found nothing to change
	}
	if err := v.submit(it); err != nil {
		return err
	}
	if it.fe != nil {
		f.e = *it.fe
	}
	return nil
}

// current reports ErrNotFound unless e, the entry a handle holds, is still
// the name table's entry of that name and version: the file has not been
// deleted, renamed away, or deleted and created again under the same version
// number (the uid tells). Under mutate's locks the answer is final — nothing
// touching the name can get between this look and the intent's application —
// so a stale handle can neither resurrect a deleted entry nor overwrite its
// successor's, and the steps a handle operation adds need no condition. The
// look is not charged: the staged path never paid for one.
func (v *Volume) current(e *Entry) error {
	key := entryKey(e.Name, e.Version)
	ok := false
	err := v.nt.Scan(key, func(k, val []byte) bool {
		ok = bytes.Equal(k, key) && entryUID(val) == e.UID
		return false
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q!%d (deleted under an open handle)", ErrNotFound, e.Name, e.Version)
	}
	return err
}

// submit hands a built intent off: to the queue, or — depth 0 — to apply,
// here and now on the caller's CPU. The caller holds the monitor.
func (v *Volume) submit(it *intent) error {
	if v.async() {
		return v.enqueueIntent(it)
	}
	return v.apply(it, v.cpu)
}

// failApply ends the WAL group of an intent that can not be completed. The
// pending batch and the name-table cache now hold part of an operation, so
// the volume stops mutating (read-only) and the group is aborted, not ended:
// the log forces nothing more, and a remount replays the state before the
// intent.
func (v *Volume) failApply(why string) {
	v.degradeTo(HealthReadOnly, why)
	v.log.Abort()
}

// startIntentQueue launches the per-volume intent queue and its applier.
// Called by goLive, the epilogue of every bring-up, when Config.AsyncApply
// is set; read-only mounts never start one. The applier's CPU is permanently
// detached: its work accumulates in ApplierBusy without advancing the
// simulated clock, modelling a core dedicated to the pipeline.
func (v *Volume) startIntentQueue() {
	v.apCPU = sim.NewCPU(v.clk)
	v.apCPU.SetDetached(true)
	v.q = intentq.New(v.clk, v.queueConfig())
}

// queueConfig binds the intent queue to this volume.
func (v *Volume) queueConfig() intentq.Config {
	return intentq.Config{
		MaxDepth: intentQueueDepth,
		// One intent, on the applier goroutine, charged to the detached
		// applier CPU.
		Apply: func(op any) error { return v.apply(op.(*intent), v.apCPU) },
		// Fatal: the pipeline can no longer promise that acknowledged
		// intents reach the log, so stop accepting mutations. The queue
		// has already drained itself; readers keep serving. A failed step
		// has demoted the volume already (failApply); this covers a
		// failed End.
		OnFatal: func(err error) {
			v.degradeTo(HealthReadOnly, "intent applier failed: "+err.Error())
		},
		OnApplied: func(op any, seq uint64, lag time.Duration, depth int) {
			v.obs.applyLag.ObserveDuration(lag)
			name := ""
			if it, ok := op.(*intent); ok {
				name = it.op
			}
			v.trace(obs.Event{Kind: obs.EvIntentApply, Op: name, OK: true, A: int64(seq), B: int64(lag), C: int64(depth)})
		},
		OnWait: func(kind, key string) {
			v.trace(obs.Event{Kind: obs.EvIntentWait, Op: kind, OK: true})
		},
	}
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

// IntentQueueLimit returns the intent-queue depth cap, the denominator of
// the backpressure signal; 0 when the volume runs the staged path.
func (v *Volume) IntentQueueLimit() int {
	if v.q == nil {
		return 0
	}
	return intentQueueDepth
}

// enqueueIntent hands a validated mutation to the applier under its intent
// sequence — the volume's commit sequence in async mode.
func (v *Volume) enqueueIntent(it *intent) error {
	seq, depth := v.q.Enqueue(it, it.touched()...)
	if seq == 0 {
		return ErrClosed
	}
	v.trace(obs.Event{Kind: obs.EvIntentEnqueue, Op: it.op, OK: true, A: int64(seq), B: int64(depth)})
	return nil
}

// waitName blocks a reader until no pending intent touches name. No-op
// without the pipeline.
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

// apply runs an intent's steps in order inside one WAL group, charging cpu:
// the caller's, inline from submit, or the applier's, from the queue. B-tree
// updates go straight to the tree, which stages WAL images through the
// name-table cache. A conditional step whose target is gone abandons the rest
// of the intent. A step that fails leaves the intent half applied: failApply
// ends the group, and the error goes back to the caller or to the queue,
// whose fatal drain drops the intents behind it. Nothing applies an intent a
// second time; the device and the name-table cache have retried already.
func (v *Volume) apply(it *intent, cpu *sim.CPU) error {
	v.log.Begin()
	for i := range it.steps {
		ok, err := v.applyStep(&it.steps[i], cpu)
		if err != nil {
			v.failApply("mutation failed part-way: " + err.Error())
			return err
		}
		if !ok {
			break
		}
	}
	return v.log.End()
}

// ignoreAbsent drops the tree's not-found: a conditional step reports its
// target gone through ok, not as an error.
func ignoreAbsent(err error) error {
	if errors.Is(err, btree.ErrNotFound) {
		return nil
	}
	return err
}

// applyStep runs one step; ok=false means a conditional step found its
// target absent and the intent should be abandoned. It is the only code that
// changes the name table, or stages a leader image, on behalf of a mutation.
func (v *Volume) applyStep(st *intentStep, cpu *sim.CPU) (bool, error) {
	cpu.Charge(time.Duration(st.cost) * sim.CostBTreeOp)
	switch st.op {
	case stepPut:
		return true, v.nt.Put(st.key, st.data)
	case stepTouch:
		val, err := v.nt.Get(st.key)
		if err != nil {
			return false, ignoreAbsent(err)
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
		return true, v.nt.Put(st.key, encodeEntry(e))
	case stepDelete:
		if err := v.nt.Delete(st.key); err != nil {
			return false, ignoreAbsent(err)
		}
		return true, nil
	case stepFree:
		v.freeOnCommit(st.runs, st.addr)
		v.invalidateData(st.runs)
		return true, nil
	case stepLeader:
		v.leaders.stage(st.addr, st.data)
		_, err := v.log.Append(wal.PageImage{Kind: wal.KindLeader, Target: uint64(st.addr), Data: st.data})
		return true, err
	default:
		return false, fmt.Errorf("core: unknown intent step %d", st.op)
	}
}
