package core

import (
	"fmt"
	"io"
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

// WriteAt writes p at byte offset off within the file's allocated pages,
// extending the recorded byte size if the write grows the file (but never
// past the allocation — use Extend first). Whole pages go out straight from
// p, which is the caller's again on return; a partial first or last page is
// read-modify-written through a scratch sector (see writeFrom).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	if err := f.writeFrom(p, off); err != nil {
		return 0, err
	}
	if end := off + int64(len(p)); end > f.Size() {
		if err := f.setByteSize(uint64(end), true); err != nil {
			return len(p), err
		}
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
		if hi, err := v.highestVersionLocked(newName); err != nil {
			return err
		} else if hi != 0 {
			return fmt.Errorf("%w: %q", ErrExists, newName)
		}
		var versions []uint32
		err := v.nt.Scan(namePrefix(oldName), func(k, _ []byte) bool {
			n, ver, ok := splitKey(k)
			if !ok || n != oldName {
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
		for _, ver := range versions {
			e, err := v.statLocked(oldName, ver)
			if err != nil {
				return err
			}
			e.Name = newName
			if err := entryFits(e); err != nil {
				return err
			}
			// A moved version costs its lookup, its put and two page
			// checksums; the delete of the old key rides free.
			it.put(e)
			it.add(intentStep{op: stepDelete, key: entryKey(oldName, ver)})
			v.cpu.Charge(2 * csumCost)
		}
		return nil
	})
}
