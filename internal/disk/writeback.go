package disk

import (
	"repro/internal/sim"
)

// Write-back window: the volatile drive cache the paper's Trident did not
// have but every modern device does. With the window enabled, writes land in
// an ordered in-memory journal (and a read overlay, so the host observes its
// own writes) instead of reaching the platter; only Sync — the barrier the
// file system's fsync paths issue — promotes an epoch of buffered writes to
// "durable". The platter itself is frozen at its enable-time state.
//
// Nothing here persists anything by itself: the crash-state explorer decides
// which journaled writes of the epoch being torn actually made it, in which
// order, and how far the breaking multi-sector write got, by replaying a
// chosen subset of the trace onto a Clone of the frozen platter. Writes of
// fully synced epochs (Epoch < the cut) are applied completely and in order;
// that is the contract a drive's flush command gives the host.

// JournaledWrite is one buffered write operation in the window, in issue
// order. Data and Labels alias the journal's private copies; callers must
// treat them as read-only.
type JournaledWrite struct {
	Seq    int     // issue order, 0-based across the whole trace
	Epoch  int     // barrier epoch the write belongs to (1-based)
	Addr   int     // first sector
	Data   []byte  // n*SectorSize bytes; nil for a label-only write
	Labels []Label // one per sector; nil when labels are untouched
}

// Sectors returns the write's length in sectors.
func (w JournaledWrite) Sectors() int {
	if w.Data != nil {
		return len(w.Data) / SectorSize
	}
	return len(w.Labels)
}

// ovSector is the newest buffered content of one sector.
type ovSector struct {
	data  []byte // nil: data not buffered (platter current)
	label *Label // nil: label not buffered
}

type writeback struct {
	epoch   int // epoch currently open (1-based)
	journal []JournaledWrite
	overlay map[int]ovSector
}

// EnableWriteBack turns on the write-back window. Subsequent writes are
// journaled instead of reaching the platter; Sync closes an epoch. Injected
// write faults (SetWriteFault) are not consulted while the window is on —
// tearing is the explorer's job, applied during state reconstruction.
func (d *Disk) EnableWriteBack() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wb != nil {
		return
	}
	d.wb = &writeback{epoch: 1, overlay: make(map[int]ovSector)}
}

// WriteBackEnabled reports whether the window is on.
func (d *Disk) WriteBackEnabled() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wb != nil
}

// Sync is the barrier: it closes the current epoch, promising that every
// write journaled before it persists ahead of every write after it. With the
// window off it is a no-op, which is what every pre-existing caller gets.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.halted {
		return ErrHalted
	}
	if d.wb == nil {
		return nil
	}
	d.wb.epoch++
	return nil
}

// SyncedEpoch returns the currently open epoch (1 before any Sync). A write
// acknowledged after a successful Sync has all its journaled writes in
// epochs strictly below the returned value.
func (d *Disk) SyncedEpoch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wb == nil {
		return 0
	}
	return d.wb.epoch
}

// Trace returns the journaled writes in issue order. The slice is a copy;
// the Data/Labels payloads are shared and must not be mutated.
func (d *Disk) Trace() []JournaledWrite {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wb == nil {
		return nil
	}
	out := make([]JournaledWrite, len(d.wb.journal))
	copy(out, d.wb.journal)
	return out
}

// FlushWriteBack applies every journaled write to the platter in order and
// empties the window (which stays enabled). It models the whole cache
// draining without a crash.
func (d *Disk) FlushWriteBack() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.halted {
		return ErrHalted
	}
	if d.wb == nil {
		return nil
	}
	for _, w := range d.wb.journal {
		d.applyJournaledLocked(w, w.Sectors(), false)
	}
	d.wb.journal = nil
	d.wb.overlay = make(map[int]ovSector)
	return nil
}

// journalWrite buffers one write operation: the n data sectors src holds
// after its first skip (none for a label-only write), copied into the
// journal's own buffer, and labs. Must hold d.mu; the caller has already
// charged device time for the transfer.
func (d *Disk) journalWrite(addr, n int, src [][]byte, skip int, labs []Label) {
	w := JournaledWrite{Seq: len(d.wb.journal), Epoch: d.wb.epoch, Addr: addr}
	if n > 0 {
		w.Data = make([]byte, 0, n*SectorSize)
		skip *= SectorSize
		for _, b := range src {
			drop := min(skip, len(b))
			w.Data = append(w.Data, b[drop:]...)
			skip -= drop
		}
	}
	if labs != nil {
		w.Labels = append([]Label(nil), labs...)
	}
	d.wb.journal = append(d.wb.journal, w)
	for i, n := 0, w.Sectors(); i < n; i++ {
		ov := d.wb.overlay[addr+i]
		if w.Data != nil {
			ov.data = w.Data[i*SectorSize : (i+1)*SectorSize]
		}
		if w.Labels != nil {
			lab := w.Labels[i]
			ov.label = &lab
		}
		d.wb.overlay[addr+i] = ov
	}
}

// Clone returns an independent disk frozen at the receiver's platter state:
// the journal is NOT carried over (a power cut empties the cache), damage,
// stuck defects, and remap state are. Sector payloads are shared
// copy-on-write between parent and clone, so cloning is a map copy, not a
// data copy — the explorer reconstructs thousands of crash images this way.
// The clone starts un-halted, with its own clock and zeroed stats.
func (d *Disk) Clone(clk sim.Clock) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cow = true
	c := &Disk{
		geom:       d.geom,
		par:        d.par,
		clk:        clk,
		data:       make(map[int][]byte, len(d.data)),
		labels:     make(map[int]Label, len(d.labels)),
		damaged:    make(map[int]bool, len(d.damaged)),
		stuck:      make(map[int]bool, len(d.stuck)),
		remapped:   make(map[int]bool, len(d.remapped)),
		spareTotal: d.spareTotal,
		sparesUsed: d.sparesUsed,
		cow:        true,
	}
	for a, s := range d.data {
		c.data[a] = s
	}
	for a, l := range d.labels {
		c.labels[a] = l
	}
	for a := range d.damaged {
		c.damaged[a] = true
	}
	for a := range d.stuck {
		c.stuck[a] = true
	}
	for a := range d.remapped {
		c.remapped[a] = true
	}
	return c
}

// ApplyJournaled persists one journaled write completely, as if it reached
// the platter before the crash. Payload slices are adopted copy-on-write.
func (d *Disk) ApplyJournaled(w JournaledWrite) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applyJournaledLocked(w, w.Sectors(), false)
}

// ApplyTorn persists a prefix of a journaled write and damages the sector at
// the break (and, when damagePrev is set, the last persisted sector too) —
// the weak-atomic property the explorer enumerates for the breaking write of
// a crash state. persist may be 0 (nothing lands, the break sector is still
// scribbled on).
func (d *Disk) ApplyTorn(w JournaledWrite, persist int, damagePrev bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := w.Sectors()
	if persist > n {
		persist = n
	}
	d.applyJournaledLocked(w, persist, false)
	if persist < n {
		d.damaged[w.Addr+persist] = true
	}
	if damagePrev && persist > 0 {
		d.damaged[w.Addr+persist-1] = true
	}
}

// applyJournaledLocked lands the first persist sectors of w. Must hold d.mu.
func (d *Disk) applyJournaledLocked(w JournaledWrite, persist int, _ bool) {
	for i := 0; i < persist; i++ {
		a := w.Addr + i
		if w.Data != nil {
			// Adopt the journal's slice; cow (set on every cloned disk
			// and on any traced parent) keeps later writes from
			// mutating the shared payload.
			d.data[a] = w.Data[i*SectorSize : (i+1)*SectorSize]
			if !d.stuck[a] {
				delete(d.damaged, a)
			}
		}
		if w.Labels != nil {
			d.labels[a] = w.Labels[i]
			if w.Data == nil && !d.stuck[a] {
				delete(d.damaged, a)
			}
		}
	}
}

// labelAt returns the host-visible label of addr (overlay first). Must hold
// d.mu.
func (d *Disk) labelAt(addr int) Label {
	if d.wb != nil {
		if ov, ok := d.wb.overlay[addr]; ok && ov.label != nil {
			return *ov.label
		}
	}
	return d.labels[addr]
}

// sectorDamaged reports whether a read of addr fails. A sector with buffered
// data is served from the cache regardless of platter damage. Must hold d.mu.
func (d *Disk) sectorDamaged(addr int) bool {
	if d.wb != nil {
		if ov, ok := d.wb.overlay[addr]; ok && ov.data != nil {
			return false
		}
	}
	return d.damaged[addr]
}
