package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvDiskOp is one physical disk operation; A=sectors, B=seek ns,
	// C=rotational-latency ns, D=transfer ns; Op is the op class
	// ("data-read", "meta-write", ...).
	EvDiskOp EventKind = iota
	// EvWALAppend is one record staged into the pending batch; A=pages
	// consumed, B=commit seq.
	EvWALAppend
	// EvWALForce is one group commit; A=images logged, B=records, C=sectors
	// written, D=force-to-force interval ns.
	EvWALForce
	// EvCacheHit / EvCacheMiss are name-table cache lookups; A=page number.
	EvCacheHit
	EvCacheMiss
	// EvLockWait is time spent acquiring the volume monitor on the commit
	// path; A=wait ns.
	EvLockWait
	// EvScrub is a scrub/repair action; Op names the action, A is a count.
	EvScrub
	// EvOpSpan is one public Volume operation; Op is the span name, OK the
	// outcome, A=sim-time latency ns.
	EvOpSpan
	// EvDataHit / EvDataMiss are data buffer-cache lookups; A=first sector
	// address, B=sectors.
	EvDataHit
	EvDataMiss
	// EvReadAhead is a sequential read-ahead fetch; A=first sector address,
	// B=sectors fetched beyond the request.
	EvReadAhead
	// EvCoalesce is a data transfer that merged physically adjacent
	// allocation runs; Op is "read" or "write", A=first sector address,
	// B=sectors, C=run boundaries crossed.
	EvCoalesce
	// EvIntentEnqueue is one intent entering the async metadata queue;
	// Op is the operation name, A=intent seq, B=queue depth after.
	EvIntentEnqueue
	// EvIntentApply is one intent leaving the queue; Op is the operation
	// name, A=intent seq, B=enqueue-to-apply lag ns, C=depth remaining.
	EvIntentApply
	// EvIntentWait is a reader (or conflicting writer) that blocked on
	// pending intents; Op is the wait kind ("name", "prefix", "applied").
	EvIntentWait
	// EvHealth is a volume health transition; Op is the new state
	// ("degraded", "read-only", "offline"), A the error budget consumed.
	EvHealth
	// EvRecovery is one mount-time log replay; Op is the health state the
	// volume mounted in, A=records replayed, B=images applied, C=torn
	// records + gap breaks, D=replay sim time ns.
	EvRecovery
)

// String names the kind for text sinks.
func (k EventKind) String() string {
	switch k {
	case EvDiskOp:
		return "disk-op"
	case EvWALAppend:
		return "wal-append"
	case EvWALForce:
		return "wal-force"
	case EvCacheHit:
		return "cache-hit"
	case EvCacheMiss:
		return "cache-miss"
	case EvLockWait:
		return "lock-wait"
	case EvScrub:
		return "scrub"
	case EvOpSpan:
		return "op"
	case EvDataHit:
		return "data-hit"
	case EvDataMiss:
		return "data-miss"
	case EvReadAhead:
		return "read-ahead"
	case EvCoalesce:
		return "coalesce"
	case EvIntentEnqueue:
		return "intent-enq"
	case EvIntentApply:
		return "intent-apply"
	case EvIntentWait:
		return "intent-wait"
	case EvHealth:
		return "health"
	case EvRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one trace record. Payload fields A–D are kind-specific int64s
// (see the EventKind docs) so emitting an event never allocates.
type Event struct {
	Time time.Duration `json:"t"` // simulated time of the event
	Kind EventKind     `json:"kind"`
	Op   string        `json:"op,omitempty"`
	OK   bool          `json:"ok"`
	A    int64         `json:"a,omitempty"`
	B    int64         `json:"b,omitempty"`
	C    int64         `json:"c,omitempty"`
	D    int64         `json:"d,omitempty"`
}

// String renders the event for human-readable sinks.
func (e Event) String() string {
	return fmt.Sprintf("%12v %-10s op=%-12s ok=%-5v a=%d b=%d c=%d d=%d",
		e.Time, e.Kind, e.Op, e.OK, e.A, e.B, e.C, e.D)
}

// Sink receives events as they are emitted. Sinks run on the emitting
// goroutine — often under a component lock (e.g. the disk's device mutex) —
// so they must be fast and must never call back into the file system.
type Sink func(Event)

// Tracer is a ring buffer of events with an optional streaming sink.
// When disabled (the default) Emit is a single atomic load and return, so
// instrumentation left in hot paths costs nothing measurable.
type Tracer struct {
	enabled atomic.Bool

	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	sink    Sink
}

// NewTracer returns a disabled tracer with the given ring capacity
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Enable starts recording.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable stops recording; the ring contents remain readable.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// SetSink installs a streaming sink (nil removes it). The sink is called
// under the tracer's lock; keep it cheap.
func (t *Tracer) SetSink(s Sink) {
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// Emit records an event if the tracer is enabled.
func (t *Tracer) Emit(e Event) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	if t.sink != nil {
		t.sink(e)
	}
	t.mu.Unlock()
}

// Record stores an event into the ring regardless of the enabled state —
// for rare lifecycle events (mount-time recovery) that must be inspectable
// after the fact even though tracing was off while they happened. The sink,
// if any, still only sees events emitted while enabled.
func (t *Tracer) Record(e Event) {
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	if t.sink != nil && t.enabled.Load() {
		t.sink(e)
	}
	t.mu.Unlock()
}

// Events returns the buffered events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
