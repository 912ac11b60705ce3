// Package intentq is the ordered intent queue behind the asynchronous
// metadata pipeline (AsyncFS/SwitchFS-style; see DESIGN.md §13).
//
// A mutation validates under a short read-mostly critical section, enqueues
// a typed intent record, and returns immediately with the intent's sequence
// number; a single background applier drains the queue in order and performs
// the deferred work (B-tree updates, WAL staging). Because there is exactly
// one applier and it consumes strictly in enqueue order, the applied state
// is always a prefix of the enqueued history — the consistency the readers'
// dependency waits build on. The applier runs each intent once: a failed
// apply is fatal, and the queue drains itself and refuses further work, so
// the applied prefix is all that ever applies.
//
// Dependency tracking is by key hashing: every intent is tagged with the
// file names it touches. The queue keeps a pending-intent count per file
// key (an FNV hash of the full name) and per directory key (a hash of every
// "/"-separated ancestor prefix, including the root), so a reader can wait
// for exactly the pending intents that could affect a name (WaitName) or a
// prefix scan (WaitPrefix) instead of draining the whole queue. Hash
// collisions only ever cause a spurious wait, never a missed one.
package intentq

import (
	"errors"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// ErrClosed is returned by Wait* calls released by Close before their
// condition was met (the queue died under them, e.g. on Crash).
var ErrClosed = errors.New("intentq: queue closed")

// Config parameterizes a Queue.
type Config struct {
	// MaxDepth bounds the unapplied intents; Enqueue blocks (backpressure)
	// at the cap so a stalled applier cannot grow the queue without bound.
	// Zero means 512.
	MaxDepth int
	// Apply executes one intent. It runs on the applier goroutine, in
	// strict enqueue order, with no queue lock held. Apply runs each intent
	// once: an error is fatal, drains the queue deterministically (see
	// OnFatal), and is reported by Err and by WaitApplied for every
	// dropped sequence. What a retry can clear (a device read, say) the
	// host retries below Apply, before the error reaches it.
	Apply func(op any) error
	// OnFatal, when set, is invoked exactly once, on the applier
	// goroutine without the queue lock, when an apply fails. By the time
	// it fires the queue has been drained: every unapplied intent was
	// dropped, blocked waiters were released, and further Enqueue calls
	// are refused. The host uses it to fail the volume over to read-only
	// instead of letting the error poison every future wait.
	OnFatal func(error)
	// OnApplied, when set, is invoked after each intent is applied with
	// the intent value, its sequence, the enqueue-to-apply lag, and the
	// depth remaining. It runs on the applier goroutine without the queue
	// lock, before the intent counts as applied: WaitApplied on its
	// sequence returns only after the callback has. The observability
	// layer feeds its gauge, histogram, and trace events from it.
	OnApplied func(op any, seq uint64, lag time.Duration, depth int)
	// OnWait, when set, is invoked once per Wait* call that actually
	// blocked, after the wait resolves. Used for the reader-wait counter
	// and trace events.
	OnWait func(kind string, key string)
}

// stripeCount is the size of the per-name lock array used by LockNames.
const stripeCount = 64

// item is one queued intent.
type item struct {
	op    any
	names []string
	at    time.Duration // enqueue time (sim clock)
}

// Queue is the per-volume ordered intent queue. All methods are safe for
// concurrent use.
type Queue struct {
	clk sim.Clock
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	items   []item
	head    int            // items[:head] are applied
	enqSeq  uint64         // sequence of the newest enqueued intent (first is 1)
	appSeq  uint64         // sequence of the newest applied intent
	nameCnt map[uint64]int // pending intents per file key
	dirCnt  map[uint64]int // pending intents per ancestor-directory key
	err     error          // sticky fatal apply error
	// failedFrom is the first sequence the fatal drain dropped (0 while
	// healthy): WaitApplied(seq) reports err only for seq >= failedFrom.
	failedFrom uint64
	closed     bool
	suspend    bool
	inApply    bool // applier is executing an intent right now

	readerWaits atomic.Int64
	maxDepth    int // high-water mark, under mu

	// stripes are the validation locks handed out by LockNames. They are
	// per-queue so independent volumes never contend with each other.
	stripes [stripeCount]sync.Mutex

	done chan struct{} // closed when the applier goroutine exits
}

// New returns a queue whose applier goroutine is already running.
func New(clk sim.Clock, cfg Config) *Queue {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 512
	}
	q := &Queue{
		clk:     clk,
		cfg:     cfg,
		nameCnt: make(map[uint64]int),
		dirCnt:  make(map[uint64]int),
		done:    make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	go q.applier()
	return q
}

// nameKey hashes a full file name to its dependency key.
func nameKey(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// dirKeys returns the dependency keys of every ancestor directory of name:
// the root "" plus each "/"-separated prefix. "a/b/c" → keys of "", "a",
// "a/b".
func dirKeys(name string) []uint64 {
	keys := []uint64{nameKey("")}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			keys = append(keys, nameKey(name[:i]))
		}
	}
	return keys
}

// dirAligned returns the longest directory-aligned prefix of a scan prefix:
// the part up to the last "/", or "" when there is none. A pending name
// matching the scan prefix always counts under this directory key (it may
// also count under deeper ones), so waiting on it is conservative-correct.
func dirAligned(prefix string) string {
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		return prefix[:i]
	}
	return ""
}

// LockNames acquires the validation stripe locks for the given names (in a
// deadlock-free global order) and returns the matching unlock. Writers hold
// the stripe across validate-and-enqueue so two mutations of the same name
// cannot interleave their validations.
func (q *Queue) LockNames(names ...string) func() {
	idx := make([]int, 0, len(names))
	for _, n := range names {
		idx = append(idx, int(nameKey(n)%stripeCount))
	}
	sort.Ints(idx)
	locked := idx[:0]
	for i, s := range idx {
		if i > 0 && s == idx[i-1] {
			continue // same stripe: lock once
		}
		q.stripes[s].Lock()
		locked = append(locked, s)
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			q.stripes[locked[i]].Unlock()
		}
	}
}

// Enqueue appends one intent touching the given names and returns its
// sequence number and the queue's depth with it in. It blocks while the
// queue is at MaxDepth. After Close — or after a fatal apply error drained
// the queue — it returns sequence 0 (the intent is dropped; callers check
// Err/closed state first).
func (q *Queue) Enqueue(op any, names ...string) (seq uint64, depth int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items)-q.head >= q.cfg.MaxDepth && !q.closed && q.err == nil {
		q.cond.Wait()
	}
	if q.closed || q.err != nil {
		return 0, 0
	}
	q.enqSeq++
	q.items = append(q.items, item{op: op, names: names, at: q.clk.Now()})
	for _, n := range names {
		q.nameCnt[nameKey(n)]++
		for _, k := range dirKeys(n) {
			q.dirCnt[k]++
		}
	}
	depth = len(q.items) - q.head
	q.maxDepth = max(q.maxDepth, depth)
	q.cond.Broadcast()
	return q.enqSeq, depth
}

// applier is the single background goroutine draining the queue in order.
func (q *Queue) applier() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for !q.closed && (q.suspend || q.head == len(q.items)) {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		it := q.items[q.head]
		q.inApply = true
		q.mu.Unlock()

		err := q.cfg.Apply(it.op)
		lag := q.clk.Now() - it.at
		// The callback runs before the sequence is published: a waiter
		// released by this intent finds its sample already recorded.
		if err == nil && q.cfg.OnApplied != nil {
			q.mu.Lock()
			seq, depth := q.appSeq+1, len(q.items)-q.head-1
			q.mu.Unlock()
			q.cfg.OnApplied(it.op, seq, lag, depth)
		}

		q.mu.Lock()
		if err != nil {
			// Fatal: drain deterministically instead of poisoning every
			// future wait. After the drain the applier parks (head ==
			// len(items) and Enqueue refuses new work).
			q.failLocked(err)
			q.inApply = false
			q.cond.Broadcast()
			q.mu.Unlock()
			if q.cfg.OnFatal != nil {
				q.cfg.OnFatal(err)
			}
			continue
		}
		q.head++
		q.appSeq++
		for _, n := range it.names {
			q.dec(q.nameCnt, nameKey(n))
			for _, k := range dirKeys(n) {
				q.dec(q.dirCnt, k)
			}
		}
		// Compact the applied prefix so the slice does not grow forever.
		if q.head > 256 && q.head*2 >= len(q.items) {
			q.items = append([]item(nil), q.items[q.head:]...)
			q.head = 0
		}
		q.inApply = false
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// failLocked records the fatal apply error and drains the queue
// deterministically: every unapplied intent (the failed one included) is
// dropped, the range [failedFrom, enqSeq] is marked failed, and the
// dependency counts are cleared so blocked readers wake. The caller holds
// q.mu. The post-fatal wait contract:
//
//   - WaitApplied(seq) for a dropped sequence returns the error — that
//     mutation was never applied and never will be;
//   - WaitApplied for a sequence applied before the failure returns nil;
//   - WaitName/WaitPrefix return nil: readers serve the pre-intent state.
//     The dropped mutations were never durably acknowledged (acks come
//     only from WaitCommitted), so this is exactly the state a crash at
//     the same moment would have recovered to.
func (q *Queue) failLocked(err error) {
	if q.err == nil {
		q.err = err
		q.failedFrom = q.appSeq + 1
	}
	q.head = len(q.items)
	q.appSeq = q.enqSeq
	q.nameCnt = make(map[uint64]int)
	q.dirCnt = make(map[uint64]int)
}

func (q *Queue) dec(m map[uint64]int, k uint64) {
	if m[k] <= 1 {
		delete(m, k)
	} else {
		m[k]--
	}
}

// WaitApplied blocks until intent seq has been applied, then returns the
// sticky error state.
func (q *Queue) WaitApplied(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	waited := false
	for q.appSeq < seq && !q.closed {
		waited = true
		q.cond.Wait()
	}
	// Decide the verdict before notifyWait drops q.mu: the queue can make
	// progress (or fail) during the unlocked callback, and the result must
	// reflect the state that satisfied the wait loop. The fatal error is
	// reported only for sequences the drain dropped; earlier intents
	// really were applied.
	err := q.err
	if err != nil && seq < q.failedFrom {
		err = nil
	}
	if err == nil && q.appSeq < seq {
		err = ErrClosed
	}
	if waited {
		q.readerWaits.Add(1)
		q.notifyWait("applied", "")
	}
	return err
}

// WaitName blocks until no pending intent touches name. Callers that went
// through LockNames(name) hold the stripe, so no new intent for the name can
// be enqueued while they wait.
func (q *Queue) WaitName(name string) error {
	return q.waitKey(&q.nameCnt, nameKey(name), "name", name)
}

// WaitPrefix blocks until no pending intent could affect a scan of prefix:
// it waits on the longest directory-aligned ancestor of the prefix, which
// conservatively covers every matching name.
func (q *Queue) WaitPrefix(prefix string) error {
	return q.waitKey(&q.dirCnt, nameKey(dirAligned(prefix)), "prefix", prefix)
}

// waitKey takes a pointer to the count map field, not the map itself: a
// fatal drain (failLocked) swaps in fresh maps, and a waiter parked across
// that swap must re-read the field or it would loop on a stale count
// forever.
func (q *Queue) waitKey(m *map[uint64]int, k uint64, kind, label string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	waited := false
	for (*m)[k] > 0 && !q.closed {
		waited = true
		q.cond.Wait()
	}
	// Decide the verdict before notifyWait drops q.mu: Wait* callers need
	// not hold the name stripe (Open/Stat never do), so a concurrent
	// Enqueue on the same key during the unlocked callback can make
	// m[k] > 0 again on a live queue — checking only afterwards would
	// misreport that as ErrClosed. A sticky fatal error is deliberately
	// NOT returned here: the fatal drain cleared the counts, and readers
	// keep serving the pre-intent state (see failLocked).
	var err error
	if (*m)[k] > 0 {
		err = ErrClosed
	}
	if waited {
		q.readerWaits.Add(1)
		q.notifyWait(kind, label)
	}
	return err
}

// notifyWait fires OnWait without the lock (it re-acquires around the call).
// Caller holds q.mu.
func (q *Queue) notifyWait(kind, label string) {
	if q.cfg.OnWait == nil {
		return
	}
	q.mu.Unlock()
	q.cfg.OnWait(kind, label)
	q.mu.Lock()
}

// Drain blocks until everything enqueued so far is applied.
func (q *Queue) Drain() error {
	q.mu.Lock()
	seq := q.enqSeq
	q.mu.Unlock()
	return q.WaitApplied(seq)
}

// Suspend parks the applier after the in-flight intent (if any) finishes;
// enqueued intents stay frozen in the queue until Resume. Test harnesses use
// it to build a deterministic deep-unapplied-queue state.
func (q *Queue) Suspend() {
	q.mu.Lock()
	q.suspend = true
	for q.inApply {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// Resume restarts a suspended applier.
func (q *Queue) Resume() {
	q.mu.Lock()
	q.suspend = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Close stops the applier without draining (a crash abandons the queue;
// orderly shutdown calls Drain first) and waits for the goroutine to exit,
// so no apply is in flight when Close returns. Blocked waiters are released.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	<-q.done
}

// Err returns the sticky fatal apply error, if any.
func (q *Queue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// FailedFrom returns the first sequence dropped by a fatal drain (0 while
// the queue is healthy).
func (q *Queue) FailedFrom() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failedFrom
}

// Depth returns the number of enqueued-but-unapplied intents (including the
// one being applied right now).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// MaxDepthSeen returns the queue-depth high-water mark.
func (q *Queue) MaxDepthSeen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.maxDepth
}

// Enqueued returns the sequence number of the newest enqueued intent
// (0 = none yet). This is the async pipeline's commit sequence.
func (q *Queue) Enqueued() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.enqSeq
}

// Applied returns the sequence number of the newest applied intent.
func (q *Queue) Applied() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.appSeq
}

// ReaderWaits returns how many Wait* calls actually blocked.
func (q *Queue) ReaderWaits() int64 { return q.readerWaits.Load() }
