package core

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Byte-granular convenience I/O over the page operations, and rename —
// the remaining pieces of the FS-level interface Cedar clients used. The
// compound operations here (size check + page I/O, read-modify-write) take
// the handle lock per step, not across the whole call: concurrent writers
// to the same handle may interleave at page granularity.

// ReadAt reads len(p) bytes at byte offset off, implementing io.ReaderAt
// semantics: it returns io.EOF when the read reaches the file's byte size.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset")
	}
	size := f.Size()
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > size {
		want = size - off
	}
	if want == 0 {
		return 0, nil
	}
	if err := f.readInto(p[:want], off); err != nil {
		return 0, err
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// WriteAt writes p at byte offset off. A write that ends past the byte size
// grows the file in the same call (grow): the new pages if it needs any, the
// data and the entry that names them are one operation and one intent. Whole
// pages go out straight from p, which is the caller's again on return; a
// partial first or last page is read-modify-written through a scratch sector
// (see writeFrom).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	var err error
	if off+int64(len(p)) > f.Size() {
		err = f.grow(p, off)
	} else {
		err = f.writeFrom(p, off)
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// Rename moves every version of oldName to newName — a pure name-table
// operation, logged like any other metadata update; no data pages move.
// It fails if any version of newName already exists.
func (v *Volume) Rename(oldName, newName string) error {
	return v.mutate("rename", nil, [2]string{oldName, newName}, func(it *intent) error {
		if err := ValidateName(newName); err != nil {
			return err
		}
		if l, err := v.newestLocked(newName, false); err != nil {
			return err
		} else if l.top != 0 {
			return fmt.Errorf("%w: %q", ErrExists, newName)
		}
		// One walk lists the versions of oldName and decodes each from the
		// value it found; it is the rename's one lookup of oldName.
		var moved []*Entry
		var derr error
		err := v.nt.Scan(namePrefix(oldName), func(k, val []byte) bool {
			ver, ok := versionOf(k, oldName)
			if !ok {
				return false
			}
			var e *Entry
			if e, derr = decodeEntry(oldName, ver, val); derr != nil {
				return false
			}
			moved = append(moved, e)
			return true
		})
		v.cpu.Charge(sim.CostBTreeOp)
		if err == nil {
			err = derr
		}
		if err != nil {
			return err
		}
		if len(moved) == 0 {
			return fmt.Errorf("%w: %q", ErrNotFound, oldName)
		}
		for _, e := range moved {
			ver := e.Version
			e.Name = newName
			if err := entryFits(e); err != nil {
				return err
			}
			// A moved version costs its put and two page checksums; the
			// delete of the old key rides free.
			it.put(e)
			it.add(intentStep{op: stepDelete, key: entryKey(oldName, ver)})
			v.cpu.Charge(2 * csumCost)
		}
		return nil
	})
}
