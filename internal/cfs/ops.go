package cfs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vam"
)

// maxTransferSectors bounds a single disk request, matching FSD's
// controller limit so I/O counts are comparable.
const maxTransferSectors = 64

// File is an open CFS file: the entry with its header loaded.
type File struct {
	v *Volume
	e Entry
}

// Entry returns the file's metadata.
func (f *File) Entry() Entry { return f.e }

// Size returns the byte size recorded in the header.
func (f *File) Size() int64 { return int64(f.e.ByteSize) }

// Pages returns the number of data pages.
func (f *File) Pages() int { return alloc.Pages(f.e.Runs) }

// newestLocked finds the newest version of name in one walk of the name
// table, as FSD's lookup does: one scan over the name's versions, charged
// one CostBTreeOp, which decodes the newest entry from the value it found.
// top is 0, and e nil, when the name has no version.
func (v *Volume) newestLocked(name string) (top uint32, e *Entry, err error) {
	var last []byte
	err = v.nt.Scan(append([]byte(name), 0), func(k, val []byte) bool {
		n, ver, ok := splitKey(k)
		if !ok || n != name {
			return false
		}
		top, last = ver, append(last[:0], val...)
		return true
	})
	v.cpu.Charge(sim.CostBTreeOp)
	if err != nil || top == 0 {
		return 0, nil, err
	}
	e, err = decodeNTEntry(name, top, last)
	return top, e, err
}

// lookupLocked fetches an entry; version 0 means newest. Either way it is
// one lookup, charged one CostBTreeOp.
func (v *Volume) lookupLocked(name string, version uint32) (*Entry, error) {
	if version == 0 {
		top, e, err := v.newestLocked(name)
		if err == nil && top == 0 {
			err = fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return e, err
	}
	val, err := v.nt.Get(entryKey(name, version))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: %q!%d", ErrNotFound, name, version)
	}
	if err != nil {
		return nil, err
	}
	v.cpu.Charge(sim.CostBTreeOp)
	return decodeNTEntry(name, version, val)
}

// readHeaderLocked reads and verifies the file's two header sectors,
// filling the header-resident fields. Labels are checked in microcode.
func (v *Volume) readHeaderLocked(e *Entry) error {
	v.metaIOs++
	buf, err := v.d.VerifyRead(e.HeaderAddr, headerLabels(e.UID))
	if err != nil {
		return err
	}
	v.cpu.Charge(2 * sim.CostPerSectorCopy)
	return decodeHeader(e, buf)
}

// verifyFreeLocked checks that a run's labels really are free, fixing the
// VAM hint when they are not. It reports whether the run was free.
func (v *Volume) verifyFreeLocked(r alloc.Run) (bool, error) {
	v.metaIOs++
	labs, err := v.d.ReadLabels(int(r.Start), int(r.Len))
	if err != nil {
		return false, err
	}
	for i, lab := range labs {
		if lab != disk.FreeLabel {
			// Stale hint: someone owns this page. Repair the VAM.
			v.vm.MarkAllocated(int(r.Start)+i, 1)
			return false, nil
		}
	}
	return true, nil
}

// Create makes a new version of name with the given contents, following the
// paper's Section 6 script: verify the free-page labels, write the header
// labels, write the data labels, write the header, update the name table,
// write the data, and rewrite the header — at least six I/Os for a one-byte
// file, versus FSD's one.
func (v *Volume) Create(name string, data []byte) (*File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return nil, err
	}
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	// A newest value that does not decode still numbers the new version;
	// it just lends no keep count.
	highest, prev, err := v.newestLocked(name)
	if err != nil && highest == 0 {
		return nil, err
	}
	var keep uint16
	if prev != nil {
		keep = prev.Keep
	}
	v.cpu.Charge(sim.CostFileCreate)
	dataPages := (len(data) + disk.SectorSize - 1) / disk.SectorSize
	runs, err := v.allocVerifiedLocked(2 + dataPages)
	if err != nil {
		return nil, err
	}
	if runs[0].Len < 2 {
		v.al.FreeNow(runs)
		return nil, fmt.Errorf("cfs: volume too fragmented for a contiguous header")
	}
	uid := v.uidNext
	v.uidNext++
	e := &Entry{
		Name:       name,
		Version:    highest + 1,
		Keep:       keep,
		UID:        uid,
		HeaderAddr: int(runs[0].Start),
		ByteSize:   uint64(len(data)),
		CreateTime: v.clk.Now(),
		Runs:       splitDataRuns(runs),
	}

	// (2) Claim the header pages by writing their labels.
	v.metaIOs++
	if err := v.d.WriteLabels(e.HeaderAddr, headerLabels(uid)); err != nil {
		return nil, err
	}
	// (3) Claim the data pages.
	pageNo := 0
	for _, r := range e.Runs {
		v.metaIOs++
		if err := v.d.WriteLabels(int(r.Start), dataLabels(uid, pageNo, int(r.Len))); err != nil {
			return nil, err
		}
		pageNo += int(r.Len)
	}
	// (4) Write the header (initial: length not yet final).
	initial := *e
	initial.ByteSize = 0
	v.metaIOs++
	if err := v.d.VerifyWrite(e.HeaderAddr, headerLabels(uid), encodeHeader(&initial)); err != nil {
		return nil, err
	}
	// (5) Update the name table — synchronous in CFS.
	v.cpu.Charge(sim.CostBTreeOp)
	if err := v.nt.Put(entryKey(name, e.Version), encodeNTEntry(e)); err != nil {
		return nil, err
	}
	// (6) Write the data, in controller-sized chunks.
	if dataPages > 0 {
		padded := make([]byte, dataPages*disk.SectorSize)
		copy(padded, data)
		v.cpu.Charge(time.Duration(dataPages) * sim.CostPerSectorCopy)
		off, pageNo := 0, 0
		for _, r := range e.Runs {
			for done := 0; done < int(r.Len); done += maxTransferSectors {
				n := int(r.Len) - done
				if n > maxTransferSectors {
					n = maxTransferSectors
				}
				if err := v.d.VerifyWrite(int(r.Start)+done, dataLabels(uid, pageNo, n), padded[off:off+n*disk.SectorSize]); err != nil {
					return nil, err
				}
				off += n * disk.SectorSize
				pageNo += n
			}
		}
	}
	// (7) Rewrite the header with the final properties.
	v.metaIOs++
	if err := v.d.VerifyWrite(e.HeaderAddr, headerLabels(uid), encodeHeader(e)); err != nil {
		return nil, err
	}
	if keep > 0 {
		if err := v.applyKeepLocked(name, e.Version, keep); err != nil {
			return nil, err
		}
	}
	return &File{v: v, e: *e}, nil
}

// allocVerifiedLocked allocates pages and verifies their labels are free,
// retrying when the VAM hint was stale ("the pages have to be verified as
// free").
func (v *Volume) allocVerifiedLocked(pages int) ([]alloc.Run, error) {
	for attempt := 0; attempt < 32; attempt++ {
		runs, err := v.al.Alloc(pages)
		if err != nil {
			return nil, err
		}
		ok := true
		for _, r := range runs {
			free, err := v.verifyFreeLocked(r)
			if err != nil {
				return nil, err
			}
			if !free {
				ok = false
				break
			}
		}
		if ok {
			return runs, nil
		}
		// The allocation overlapped pages that are really in use; the
		// verify loop already corrected the VAM, so just retry. The
		// other pages of this allocation go back to the pool.
		v.al.FreeNow(runs)
	}
	return nil, vam.ErrNoSpace
}

// splitDataRuns strips the two header sectors off the front of an
// allocation, leaving the data runs.
func splitDataRuns(runs []alloc.Run) []alloc.Run {
	out := make([]alloc.Run, 0, len(runs))
	first := runs[0]
	if first.Len > 2 {
		out = append(out, alloc.Run{Start: first.Start + 2, Len: first.Len - 2})
	}
	out = append(out, runs[1:]...)
	return out
}

func (v *Volume) applyKeepLocked(name string, newest uint32, keep uint16) error {
	if uint32(keep) >= newest {
		return nil
	}
	cutoff := newest - uint32(keep)
	var doomed []uint32
	err := v.nt.Scan(append([]byte(name), 0), func(k, _ []byte) bool {
		n, ver, ok := splitKey(k)
		if !ok || n != name {
			return false
		}
		if ver <= cutoff {
			doomed = append(doomed, ver)
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, ver := range doomed {
		e, err := v.lookupLocked(name, ver)
		if err == nil {
			err = v.deleteLocked(e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Open looks the file up in the name table and reads its header — CFS
// always pays a disk read at open to fetch the run table and properties.
func (v *Volume) Open(name string, version uint32) (*File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return nil, err
	}
	e, err := v.lookupLocked(name, version)
	if err != nil {
		return nil, err
	}
	if err := v.readHeaderLocked(e); err != nil {
		return nil, err
	}
	return &File{v: v, e: *e}, nil
}

// Stat returns the full entry (requiring the header read, as in Open).
func (v *Volume) Stat(name string, version uint32) (*Entry, error) {
	f, err := v.Open(name, version)
	if err != nil {
		return nil, err
	}
	return &f.e, nil
}

// Touch updates the last-used/property area of the header: a header read
// plus a header rewrite — two I/Os for what FSD does with a buffered
// name-table update.
func (v *Volume) Touch(name string, version uint32) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return err
	}
	e, err := v.lookupLocked(name, version)
	if err != nil {
		return err
	}
	if err := v.readHeaderLocked(e); err != nil {
		return err
	}
	// The whole properties sector is rewritten to change one field.
	v.metaIOs++
	return v.d.VerifyWrite(e.HeaderAddr, headerLabels(e.UID), encodeHeader(e))
}

// Delete removes a file version: read the header for the run table, write
// free labels over every page (an I/O per run — this is why CFS large
// deletes take seconds), remove the name-table entry, and free the pages.
func (v *Volume) Delete(name string, version uint32) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return err
	}
	e, err := v.lookupLocked(name, version)
	if err != nil {
		return err
	}
	return v.deleteLocked(e)
}

// deleteLocked deletes the version e, which the caller has looked up.
func (v *Volume) deleteLocked(e *Entry) error {
	if err := v.readHeaderLocked(e); err != nil {
		return err
	}
	// Free the labels: header first, then every data run (label-only
	// writes stream a whole run; only data transfers are chunked).
	v.metaIOs++
	if err := v.d.WriteLabels(e.HeaderAddr, freeLabels(2)); err != nil {
		return err
	}
	for _, r := range e.Runs {
		v.metaIOs++
		if err := v.d.WriteLabels(int(r.Start), freeLabels(int(r.Len))); err != nil {
			return err
		}
	}
	v.cpu.Charge(sim.CostBTreeOp)
	if err := v.nt.Delete(entryKey(e.Name, e.Version)); err != nil {
		return err
	}
	v.vm.MarkFree(e.HeaderAddr, 2)
	for _, r := range e.Runs {
		v.vm.MarkFree(int(r.Start), int(r.Len))
	}
	return nil
}

// List enumerates files with the given name prefix. Properties live in the
// headers, so CFS pays a header read per file ("keeping the name and
// property information together is desirable for operations over many
// files" — the FSD change this motivates).
func (v *Volume) List(prefix string, fn func(Entry) bool) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return err
	}
	type nameVer struct {
		name string
		ver  uint32
	}
	var hits []nameVer
	err := v.nt.Scan([]byte(prefix), func(k, _ []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			return false
		}
		hits = append(hits, nameVer{name, ver})
		return true
	})
	if err != nil {
		return err
	}
	for _, h := range hits {
		e, err := v.lookupLocked(h.name, h.ver)
		if err != nil {
			return err
		}
		if err := v.readHeaderLocked(e); err != nil {
			return err
		}
		v.cpu.Charge(sim.CostBTreeOp / 8)
		if !fn(*e) {
			return nil
		}
	}
	return nil
}

// ReadPages reads n data pages starting at logical page `page`, with
// microcode label verification on every sector.
func (f *File) ReadPages(page, n int) ([]byte, error) {
	v := f.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return nil, err
	}
	if page < 0 || n <= 0 || page+n > f.Pages() {
		return nil, fmt.Errorf("cfs: read [%d,%d) outside %q!%d", page, page+n, f.e.Name, f.e.Version)
	}
	out := make([]byte, 0, n*disk.SectorSize)
	cur := page
	remaining := n
	for remaining > 0 {
		addr, cnt := f.mapContiguous(cur, remaining)
		if cnt > maxTransferSectors {
			cnt = maxTransferSectors
		}
		buf, err := v.d.VerifyRead(addr, dataLabels(f.e.UID, cur, cnt))
		if err != nil {
			return nil, err
		}
		out = append(out, buf...)
		v.cpu.Charge(time.Duration(cnt) * sim.CostPerSectorCopy)
		cur += cnt
		remaining -= cnt
	}
	return out, nil
}

// ReadAll reads the whole file, trimmed to its byte size.
func (f *File) ReadAll() ([]byte, error) {
	if f.Pages() == 0 {
		return nil, nil
	}
	buf, err := f.ReadPages(0, f.Pages())
	if err != nil {
		return nil, err
	}
	return buf[:f.e.ByteSize], nil
}

// WritePages overwrites data pages with label verification.
func (f *File) WritePages(page int, data []byte) error {
	v := f.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.begin(); err != nil {
		return err
	}
	if len(data)%disk.SectorSize != 0 {
		return fmt.Errorf("cfs: unaligned write")
	}
	n := len(data) / disk.SectorSize
	if page < 0 || n <= 0 || page+n > f.Pages() {
		return fmt.Errorf("cfs: write [%d,%d) outside %q!%d", page, page+n, f.e.Name, f.e.Version)
	}
	written := 0
	cur := page
	for written < n {
		addr, cnt := f.mapContiguous(cur, n-written)
		if cnt > maxTransferSectors {
			cnt = maxTransferSectors
		}
		chunk := data[written*disk.SectorSize : (written+cnt)*disk.SectorSize]
		if err := v.d.VerifyWrite(addr, dataLabels(f.e.UID, cur, cnt), chunk); err != nil {
			return err
		}
		v.cpu.Charge(time.Duration(cnt) * sim.CostPerSectorCopy)
		cur += cnt
		written += cnt
	}
	return nil
}

// mapContiguous maps a logical data page to (disk address, contiguous count
// capped at want).
func (f *File) mapContiguous(page, want int) (int, int) {
	off := page
	for _, r := range f.e.Runs {
		if off < int(r.Len) {
			n := int(r.Len) - off
			if n > want {
				n = want
			}
			return int(r.Start) + off, n
		}
		off -= int(r.Len)
	}
	return 0, 0
}
