package disk

import (
	"errors"
	"math/rand"
	"time"
)

// Media-fault model. The paper's redundancy design (duplicated name table,
// dual-copy log records, replicated boot pages) defends against "one or two
// consecutive sectors at a time" going bad; this file supplies the other
// half of that contract — a device that actually decays. Three fault classes
// are modelled, all discovered at read time as on a real drive:
//
//   - transient read errors: the sector fails once (a marginal read) and is
//     fine on retry; bounded in-place retries absorb these.
//   - latent sector errors: the sector has decayed since it was written and
//     stays unreadable until rewritten. A fraction of these are "stuck" —
//     a physical defect where rewrites appear to succeed but the sector
//     still reads bad; only remapping to a spare retires it.
//   - bit rot: the sector reads successfully but a bit has flipped. The
//     device does not notice; only software checksums catch it.
//
// The write side mirrors the read side with three classes of its own,
// discovered at write time:
//
//   - transient write errors: one write of a sector fails (a marginal pass
//     of the head); sectors before the failing one persist, the sector
//     itself keeps its old content, and a retry succeeds.
//   - bad-on-write sectors: the medium fails under the write and stays bad.
//     The sector is damaged and stuck — rewrites appear to succeed without
//     clearing the damage — so only remapping to a spare retires it.
//   - hung I/O: a whole operation stalls for a latency spike (firmware
//     internal recovery, thermal recalibration) before transferring. The
//     operation still completes; the host-side deadline is what classifies
//     the stall as a fault.
//
// The injector is driven by a single seeded PRNG consulted under the device
// mutex, so a given (seed, operation sequence) replays the exact same fault
// pattern — probabilistic robustness tests print their seed on failure.
// Probabilities that are zero never consume a PRNG draw, so enabling only
// one side of the model leaves the other side's fault sequence unchanged.

// ErrNoSpares is returned by Remap when the spare-sector pool is exhausted.
var ErrNoSpares = errors.New("disk: spare-sector pool exhausted")

// DefaultSpares is the size of the spare-sector pool a drive ships with.
const DefaultSpares = 64

// FaultConfig parameterizes the fault injector. All probabilities are per
// sector transferred except HungIO, which is per operation; zero disables
// that fault class.
type FaultConfig struct {
	Seed          int64   // PRNG seed; the whole fault pattern is a function of it
	TransientRead float64 // P(one read of a sector fails, without persisting damage)
	LatentError   float64 // P(sector found decayed: unreadable until rewritten)
	StuckFraction float64 // P(a latent error is a stuck physical defect | latent)
	BitRot        float64 // P(a read returns silently corrupted data)

	TransientWrite float64       // P(one write of a sector fails; the prefix persists, a retry succeeds)
	BadOnWrite     float64       // P(sector fails under the write and stays bad until remapped)
	HungIO         float64       // P(a write operation stalls for HungIODelay before transferring)
	HungIODelay    time.Duration // stall per hung operation; zero means 2s
}

// FaultStats counts fault-model activity since the injector was installed
// (remap and spare counters are lifetime values of the drive).
type FaultStats struct {
	TransientErrors int // reads that failed transiently
	LatentErrors    int // sectors that decayed into persistent damage
	StuckSectors    int // latent errors that were stuck defects
	BitRotEvents    int // silent corruptions returned to the host
	TransientWrites int // writes that failed transiently
	BadOnWrite      int // sectors that went bad under a write (stuck until remapped)
	HungOps         int // operations that stalled for a hung-I/O latency spike
	Remaps          int // sectors retired to spares
	SparesLeft      int
}

type faultInjector struct {
	cfg FaultConfig
	rng *rand.Rand
}

// faultCounts holds the fault bookkeeping; guarded by d.mu.
type faultCounts struct {
	transient  int
	latent     int
	stuck      int
	bitrot     int
	transientW int
	badWrite   int
	hung       int
	remaps     int
}

// InjectFaults installs (or replaces) the probabilistic read-fault injector
// and resets the per-injector counters. A zero-valued config effectively
// disables injection but keeps the deterministic PRNG in place.
func (d *Disk) InjectFaults(cfg FaultConfig) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = &faultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	d.fcnt = faultCounts{remaps: d.fcnt.remaps}
}

// ClearFaults removes the injector. Damage already on the platters stays.
func (d *Disk) ClearFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = nil
}

// FaultStats snapshots the fault-model counters.
func (d *Disk) FaultStats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return FaultStats{
		TransientErrors: d.fcnt.transient,
		LatentErrors:    d.fcnt.latent,
		StuckSectors:    d.fcnt.stuck,
		BitRotEvents:    d.fcnt.bitrot,
		TransientWrites: d.fcnt.transientW,
		BadOnWrite:      d.fcnt.badWrite,
		HungOps:         d.fcnt.hung,
		Remaps:          d.fcnt.remaps,
		SparesLeft:      d.spareTotal - d.sparesUsed,
	}
}

// SetSpares resizes the spare-sector pool (before exhaustion testing).
func (d *Disk) SetSpares(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spareTotal = n
	if d.sparesUsed > n {
		d.sparesUsed = n
	}
}

// SparesLeft reports the remaining spare-sector capacity.
func (d *Disk) SparesLeft() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spareTotal - d.sparesUsed
}

// MarkStuck makes n sectors starting at addr stuck physical defects: they
// are damaged now, and rewrites appear to succeed without clearing the
// damage. Only Remap retires them. (Test hook, like CorruptSectors.)
func (d *Disk) MarkStuck(addr, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n; i++ {
		d.damaged[addr+i] = true
		d.stuck[addr+i] = true
	}
}

// IsRemapped reports whether addr has been retired to a spare sector.
func (d *Disk) IsRemapped(addr int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remapped[addr]
}

// Remap retires a persistently bad sector to the spare pool, as drive
// firmware does: the logical address now points at a blank spare (the caller
// is expected to rewrite the content from a redundant copy), the defect list
// forgets the old physical sector, and one spare is consumed. Reads and
// writes of a remapped sector pay an extra revolution for the slip to the
// spare track. Fails with ErrNoSpares when the pool is exhausted.
func (d *Disk) Remap(addr int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.halted {
		return ErrHalted
	}
	if err := d.checkRange(addr, 1); err != nil {
		return err
	}
	if d.sparesUsed >= d.spareTotal {
		return ErrNoSpares
	}
	d.sparesUsed++
	d.fcnt.remaps++
	d.remapped[addr] = true
	delete(d.stuck, addr)
	delete(d.damaged, addr)
	delete(d.data, addr) // the spare starts blank
	return nil
}

// injectRead rolls the fault model for one sector about to be read. Must
// hold d.mu. A non-nil error aborts the read of this sector.
func (d *Disk) injectRead(addr int) error {
	in := d.inj
	r := in.rng
	if in.cfg.TransientRead > 0 && r.Float64() < in.cfg.TransientRead {
		d.fcnt.transient++
		return &DamagedError{Addr: addr}
	}
	if in.cfg.LatentError > 0 && r.Float64() < in.cfg.LatentError {
		d.fcnt.latent++
		d.damaged[addr] = true
		if in.cfg.StuckFraction > 0 && r.Float64() < in.cfg.StuckFraction {
			d.stuck[addr] = true
			d.fcnt.stuck++
		}
		return &DamagedError{Addr: addr}
	}
	if in.cfg.BitRot > 0 && r.Float64() < in.cfg.BitRot {
		if s, ok := d.data[addr]; ok {
			if d.cow {
				s = append([]byte(nil), s...)
				d.data[addr] = s
			}
			s[r.Intn(SectorSize)] ^= 1 << uint(r.Intn(8))
			d.fcnt.bitrot++
		}
	}
	return nil
}

// injectWrite rolls the fault model for one sector about to be written. Must
// hold d.mu. A non-nil error aborts the write at this sector: earlier sectors
// of the run have persisted (the weak-atomic property), this sector keeps its
// old content. BadOnWrite additionally leaves the sector damaged and stuck,
// so only Remap retires it.
func (d *Disk) injectWrite(addr int) error {
	in := d.inj
	r := in.rng
	if in.cfg.TransientWrite > 0 && r.Float64() < in.cfg.TransientWrite {
		d.fcnt.transientW++
		return &DamagedError{Addr: addr}
	}
	if in.cfg.BadOnWrite > 0 && r.Float64() < in.cfg.BadOnWrite {
		d.fcnt.badWrite++
		d.damaged[addr] = true
		d.stuck[addr] = true
		return &DamagedError{Addr: addr}
	}
	return nil
}

// injectHang rolls the per-operation hung-I/O spike and charges the stall to
// the simulated clock. Must hold d.mu. The operation itself still completes;
// a host-side deadline (core's opTimeout) is what turns the latency
// into a fault classification.
func (d *Disk) injectHang() {
	in := d.inj
	if in == nil || in.cfg.HungIO <= 0 {
		return
	}
	if in.rng.Float64() < in.cfg.HungIO {
		d.fcnt.hung++
		delay := in.cfg.HungIODelay
		if delay == 0 {
			delay = 2 * time.Second
		}
		d.cnt.stallTime.Add(int64(delay))
		d.clk.Advance(delay)
	}
}
