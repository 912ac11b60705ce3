package core

import (
	"errors"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// The volume health state machine: the write-path fault model's answer to
// "what does the file system do when retries stop working". Every write
// site, the log's included, funnels through writeSectors (bounded retries +
// spare-sector remap), every retried read through readRetried, and every
// absorbed fault charges a weighted error budget. The budget drives a
// monotonic four-state FSM:
//
//	Healthy  —— budget exceeded ——▶  Degraded   (scrub scheduled aggressively)
//	Degraded —— budget 4× / write fails outright / spares gone ——▶ ReadOnly
//	any      —— device halted ——▶  Offline
//
// Degraded volumes still serve everything — the state is a warning plus an
// immediate scrub pass to re-duplicate what the faults degraded. ReadOnly
// means durability can no longer be promised: mutations fail with
// ErrReadOnly while reads keep serving from whatever redundancy remains,
// the same contract as a degraded read-only mount. Offline means the
// device itself is gone and even reads cannot be served.
//
// Transitions are one-way (a volume never self-promotes back to Healthy;
// remount after repair for that), so the FSM is a simple monotonic
// max-exchange over an atomic — callable from the disk's op observer and
// from the log's writes, both of which run under component locks.

// Health is the volume health state. States are ordered: transitions only
// ever increase, so Health() >= HealthReadOnly means "mutations refused".
type Health int32

const (
	// HealthHealthy is the normal state: no fault activity beyond the
	// error budget.
	HealthHealthy Health = iota
	// HealthDegraded means the error budget was exceeded: operations
	// still succeed, but the media is decaying faster than the background
	// scrub assumes, so a scrub pass has been scheduled immediately.
	HealthDegraded
	// HealthReadOnly means durability can no longer be promised (a write
	// failed past retries and remap, or the spare pool is exhausted):
	// mutations fail with ErrReadOnly, reads keep serving.
	HealthReadOnly
	// HealthOffline means the device has failed outright (halted);
	// nothing can be served.
	HealthOffline
)

// String names the state for stats lines and trace events.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthReadOnly:
		return "read-only"
	case HealthOffline:
		return "offline"
	default:
		return "unknown"
	}
}

// ErrOffline is returned by every operation once the volume is Offline.
var ErrOffline = errors.New("core: volume offline (device failed)")

// Error-budget weights: how much of the budget one absorbed fault burns.
// A retry is cheap and expected under transient faults; a remap consumed a
// finite spare; a hung op stalled the whole device past the deadline.
const (
	weightRetry = 1
	weightRemap = 4
	weightHung  = 8
)

// Health returns the current health state.
func (v *Volume) Health() Health {
	return Health(v.health.Load())
}

// HealthReason reports what caused the last downward transition; empty
// while the volume is healthy.
func (v *Volume) HealthReason() string {
	v.healthMu.Lock()
	defer v.healthMu.Unlock()
	return v.healthWhy
}

// degradeTo moves the FSM to at least h (monotonic: a lower target than the
// current state is a no-op). Safe under component locks — it touches only
// atomics, the reason string, and the trace ring, and runs repair work on a
// fresh goroutine. Returns whether this call made the transition.
func (v *Volume) degradeTo(h Health, why string) bool {
	for {
		cur := v.health.Load()
		if cur >= int32(h) {
			return false
		}
		if !v.health.CompareAndSwap(cur, int32(h)) {
			continue
		}
		v.healthMu.Lock()
		v.healthWhy = why
		v.healthMu.Unlock()
		v.trace(obs.Event{Kind: obs.EvHealth, Op: h.String(), OK: h < HealthReadOnly, A: v.faults.budget.Load()})
		if h == HealthDegraded && v.ready.Load() && !v.closed.Load() {
			// Aggressive scrub: the budget says the media is decaying
			// faster than the background cadence assumes, so restore
			// redundancy now. Errors surface through the pass's own
			// problem list; Scrub serializes behind scrubMu. The ready
			// gate defers the pass when the budget trips mid-mount — the
			// volume is still being wired (recovery itself charges the
			// budget now) — and mount schedules it at the end instead.
			go func() { _, _ = v.Scrub() }()
		}
		return true
	}
}

// chargeBudget burns weight units of the error budget and applies the
// threshold transitions: budget exceeded → Degraded, 4× exceeded →
// ReadOnly. Config.ErrorBudget < 0 disables budget-driven transitions
// (outright failures still transition via noteWriteFault).
func (v *Volume) chargeBudget(weight int64, why string) {
	total := v.faults.budget.Add(weight)
	budget := int64(v.cfg.errorBudget())
	if budget <= 0 {
		return
	}
	switch {
	case total >= 4*budget:
		v.degradeTo(HealthReadOnly, why+" (error budget exhausted)")
	case total >= budget:
		v.degradeTo(HealthDegraded, why+" (error budget exceeded)")
	}
}

// noteWriteFault records the outcome of one write site's retry/remap
// policy: absorbed faults charge the budget, unabsorbed errors transition
// the FSM directly. writeSectorsFrom, the one write path, reports here.
func (v *Volume) noteWriteFault(retried, remapped int, err error) {
	if retried > 0 {
		v.faults.writeRetries.Add(int64(retried))
		v.chargeBudget(int64(retried)*weightRetry, "write retries")
	}
	if remapped > 0 {
		v.faults.writeRemaps.Add(int64(remapped))
		v.chargeBudget(int64(remapped)*weightRemap, "write remaps")
	}
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, disk.ErrHalted):
		v.degradeTo(HealthOffline, "device halted")
	case errors.Is(err, disk.ErrNoSpares):
		v.degradeTo(HealthReadOnly, "spare-sector pool exhausted")
	default:
		var de *disk.DamagedError
		if errors.As(err, &de) {
			v.degradeTo(HealthReadOnly,
				"write failed past retries and remap")
		}
	}
}

// noteReadFault records the outcome of one read's bounded retries, the read
// side's counterpart of noteWriteFault: every retried read in core and the
// log's (readRetried) reports here. It counts the retries, and the read once
// if they saved it; charge says whether the retries also burn the error
// budget, which is the caller's policy — a mount whose replay limped
// through decayed media lands Degraded, with the aggressive scrub pass that
// implies, while a scrub retrying damage it is about to repair only counts.
// A read that stays damaged is not escalated here: the caller repairs from
// a copy or reports the loss. A halted device takes the volume Offline.
func (v *Volume) noteReadFault(retried int, err error, charge bool) {
	if retried > 0 {
		v.faults.retries.Add(int64(retried))
		if err == nil {
			v.faults.retriedOK.Add(1)
		}
		if charge {
			v.chargeBudget(int64(retried)*weightRetry, "read retries")
		}
	}
	if errors.Is(err, disk.ErrHalted) {
		v.degradeTo(HealthOffline, "device halted")
	}
}

// noteHungOp classifies one disk operation that exceeded opTimeout:
// the op did complete (the simulated device never wedges forever), but a
// real stalled drive would have held the commit pipeline for this long, so
// it burns budget like a serious fault.
func (v *Volume) noteHungOp(elapsed time.Duration) {
	v.faults.hungOps.Add(1)
	v.chargeBudget(weightHung, "hung I/O")
}

// writeSectorsFrom is the volume's one write path to the device: bounded
// in-place retries absorb transient write faults, persistent bad-on-write
// sectors are retired to spares via Remap, and whatever happens is fed to
// the health FSM. Every metadata, data and log write goes through it (the
// log is handed writeSectors, walConfig). src is a gather list, as
// disk.WriteSectorsFrom takes.
func (v *Volume) writeSectorsFrom(addr int, src ...[]byte) error {
	retried, remapped, err := disk.WriteSectorsRetryFrom(v.d, addr, v.cfg.writeRetries(), src...)
	if retried > 0 || remapped > 0 || err != nil {
		v.noteWriteFault(retried, remapped, err)
	}
	return err
}

// writeSectors is writeSectorsFrom one buffer.
func (v *Volume) writeSectors(addr int, data []byte) error {
	return v.writeSectorsFrom(addr, data)
}

// readLog is the read the volume hands its log (walConfig). Its retries
// always charge the error budget: the log is read by a mount's replay, and a
// read-only mount limping through decayed media must report Degraded too.
func (v *Volume) readLog(addr int, dst ...[]byte) error {
	return v.readRetried(true, addr, dst...)
}

// readRetried is the volume's one retried read: disk.ReadSectorsRetryInto at
// the configured budget, its outcome reported to noteReadFault.
func (v *Volume) readRetried(charge bool, addr int, dst ...[]byte) error {
	retried, err := disk.ReadSectorsRetryInto(v.d, addr, v.cfg.readRetries(), dst...)
	if retried > 0 || err != nil {
		v.noteReadFault(retried, err, charge)
	}
	return err
}

// healthErr translates the current state into the error a mutation (or,
// for Offline, any operation) must return, or nil when the volume may
// write. A volume the health FSM demoted and one mounted read-only
// deliberately share ErrReadOnly: either way nothing new is written.
func (v *Volume) healthErr() error {
	switch h := v.Health(); {
	case h == HealthOffline:
		return ErrOffline
	case h == HealthReadOnly || v.readOnly:
		return ErrReadOnly
	default:
		return nil
	}
}
