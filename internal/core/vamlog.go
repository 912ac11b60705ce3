package core

import (
	"repro/internal/disk"
	"repro/internal/vam"
	"repro/internal/wal"
)

// VAM logging — the extension the paper considered and rejected as "a
// complicated modification": log changes to the allocation map alongside
// the name-table images, so crash recovery can skip the ~20-second
// name-table scan and restart in about two seconds.
//
// Mechanics: a tracker on the VAM records which 512-byte sectors of the
// save-area bitmap have changed; at every log force, images of the dirty
// sectors join the batch (via the WAL's PreStage hook), so a commit's
// allocation deltas are exactly as durable as its name-table updates. The
// save area is written in full (with its validity stamp) at format and
// mount, and individual logged sectors are flushed home by the same
// thirds protocol as name-table pages. After a crash, recovery applies the
// logged sector images over the save-area base and loads the result — no
// scan.
//
// Asymmetry note: a delete's pages move from the shadow bitmap to the free
// bitmap in the commit callback, *after* its force, so their VAM delta
// rides the next force. A crash in between leaks those pages until the
// next full save or reconstruction — safe (the map is conservative),
// exactly the hint semantics the VAM always had.

// vamSector is the logging state of one save-area bitmap sector.
type vamSector struct {
	logged []byte // snapshot equal to the newest logged image
	third  int
}

// enableVAMLogging installs the tracker and WAL hooks. Call after the VAM
// and log exist and the initial full save has been written.
func (v *Volume) enableVAMLogging() {
	v.vamDirty = make(map[int]bool)
	v.vamSectors = make(map[int]*vamSector)
	// The tracker fires from inside VAM mutations, whose callers already
	// hold vmMu — it must not lock anything itself.
	v.vm.Tracker = func(p, count int) {
		lo := vam.BitmapSectorOfPage(p)
		hi := vam.BitmapSectorOfPage(p + count - 1)
		for s := lo; s <= hi; s++ {
			v.vamDirty[s] = true
		}
	}
	// PreStage runs on the force path under forceMu, concurrently with
	// staging operations that mutate the VAM, so it snapshots the dirty
	// set and sector contents under vmMu.
	v.log.PreStage = func() []wal.PageImage {
		v.vmMu.Lock()
		defer v.vmMu.Unlock()
		if len(v.vamDirty) == 0 {
			return nil
		}
		idxs := sortedKeys(v.vamDirty)
		images := make([]wal.PageImage, 0, len(idxs))
		for _, s := range idxs {
			buf := make([]byte, disk.SectorSize)
			v.vm.EncodeBitmapSector(s, buf)
			images = append(images, wal.PageImage{Kind: wal.KindVAM, Target: uint64(s), Data: buf})
		}
		v.vamDirty = make(map[int]bool)
		return images
	}
}

// onVAMLogged records a logged bitmap sector (from the WAL's OnLogged,
// under forceMu — vamSectors is only ever touched on the force path). The
// snapshot copies the image bytes that were actually written to the log:
// with pipelined commit the live VAM may already be newer.
func (v *Volume) onVAMLogged(target uint64, third int, data []byte) {
	if v.vamSectors == nil {
		return
	}
	s, ok := v.vamSectors[int(target)]
	if !ok {
		s = &vamSector{}
		v.vamSectors[int(target)] = s
	}
	if s.logged == nil {
		s.logged = make([]byte, disk.SectorSize)
	}
	copy(s.logged, data)
	s.third = third
}

// flushVAMSectors writes home logged bitmap sectors whose third is being
// overwritten, in address order: a map-ordered flush would seek differently
// on every run.
func (v *Volume) flushVAMSectors(third int) (int, error) {
	n := 0
	for _, idx := range sortedKeys(v.vamSectors) {
		s := v.vamSectors[idx]
		if s.third != third {
			continue
		}
		if err := v.writeSectors(v.lay.vamBase+1+idx, s.logged); err != nil {
			return n, err
		}
		delete(v.vamSectors, idx)
		n++
	}
	return n, nil
}

// recoverVAMFromLog applies replayed bitmap-sector images over the save
// area and loads the result. It returns (vam, true) on success; on any
// damage the caller falls back to reconstruction.
func (v *Volume) recoverVAMFromLog(images map[int][]byte) (*vam.VAM, bool) {
	for _, s := range sortedKeys(images) {
		if err := v.writeSectors(v.lay.vamBase+1+s, images[s]); err != nil {
			return nil, false
		}
	}
	vm, err := vam.LoadLoose(v.d, v.lay.vamBase, v.lay.total)
	if err != nil {
		return nil, false
	}
	return vm, true
}
