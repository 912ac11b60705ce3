package disk

import "errors"

// DefaultRetries is the in-place retry budget of a read or write whose
// caller sets none.
const DefaultRetries = 2

// Retries maps a configured in-place retry budget to the one spent: zero
// means DefaultRetries, negative none.
func Retries(n int) int {
	switch {
	case n < 0:
		return 0
	case n == 0:
		return DefaultRetries
	}
	return n
}

// ReadSectorsRetry is ReadSectorsRetryInto a new buffer of n sectors,
// returning the data.
func ReadSectorsRetry(d *Disk, addr, n, retries int) (data []byte, retried int, err error) {
	if n < 0 {
		return nil, 0, ErrOutOfRange
	}
	data = make([]byte, n*SectorSize)
	if retried, err = ReadSectorsRetryInto(d, addr, retries, data); err != nil {
		return nil, retried, err
	}
	return data, retried, nil
}

// ReadSectorsRetryInto reads consecutive sectors at addr into the scatter
// list dst like ReadSectorsInto, but retries a media-damage failure in place
// — the read-side twin of WriteSectorsRetryFrom, for transient faults that
// clear on a re-read. A transfer that fails at a sector already holds the
// sectors before it, so the retry resumes at the failing sector rather than
// re-reading the run: no healthy sector faces the fault model twice (under
// latent decay, every extra pass over a good sector could kill it), a long
// run needs only per-sector luck, and progress restores the in-place budget
// (retries is per sector, not per run).
//
// It returns how many retries were spent, so callers can charge an error
// budget, and the final error: nil on success, the failing sector's
// DamagedError when its budget ran out, or the original error for non-media
// failures (ErrHalted, out of range), which are never retried. On an error
// dst is partly overwritten — but after a DamagedError at address a, the
// sectors of dst before a hold their data, which is what lets ReadPast
// resume behind a.
func ReadSectorsRetryInto(d *Disk, addr, retries int, dst ...[]byte) (retried int, err error) {
	n, err := countSectors(dst)
	if err != nil {
		return
	}
	done := 0 // sectors of dst already read
	tries := 0
	for {
		err = d.readCommon(addr+done, dst, done)
		if err == nil {
			return
		}
		// Declared past the success check: the target escapes, and a read
		// that succeeds must not pay for it.
		var de *DamagedError
		if !errors.As(err, &de) {
			return
		}
		if at := de.Addr - addr; at > done && at < n {
			done, tries = at, 0
		}
		if tries >= retries {
			return
		}
		tries++
		retried++
	}
}

// ReadPast reads buf's sectors from addr on past damage, through read — the
// caller's retried read (ReadSectorsRetryInto with the caller's budget and
// fault reporting). A sector that stays unreadable is zeroed (buf may hold
// another stretch's bytes), appended to dead, and the read resumes behind
// it, so each sector is read once plus its own retries. Only a halted
// device, or another error that is not damage, is an error; dead is
// returned as it stands then.
func ReadPast(addr int, buf []byte, dead []int, read func(addr int, dst ...[]byte) error) ([]int, error) {
	for done := 0; done < len(buf)/SectorSize; {
		err := read(addr+done, buf[done*SectorSize:])
		if err == nil {
			break
		}
		var de *DamagedError
		if !errors.As(err, &de) {
			return dead, err
		}
		at := de.Addr - addr
		clear(buf[at*SectorSize : (at+1)*SectorSize])
		dead = append(dead, de.Addr)
		done = at + 1
	}
	return dead, nil
}

// WriteSectorsRetryFrom writes the gather list src at addr like
// WriteSectorsFrom, but absorbs the write-side fault model. A failed write
// persists the prefix of the run (sectors before the failing one are on the
// platter), so the retry resumes at the failing sector — wherever in the
// list it lies — rather than re-running the whole transfer: a long run
// needs only per-sector luck, not end-to-end luck, and every fault that
// makes progress resets the in-place retry budget (retries is per sector,
// not per run).
//
// A failing sector that reads as damaged is probed with one single-sector
// rewrite before a spare is spent: a transient failure over media that
// merely held old damage (a decayed sector being rewritten) clears under
// the probe, while a bad-on-write or stuck defect either fails it or stays
// damaged behind an apparent success — only then is the sector retired
// with Remap. The remap loop is bounded by the spare pool (ErrNoSpares
// ends it).
//
// It returns how many in-place retries and how many remaps were spent, so
// callers can charge an error budget, plus the final error: nil on success,
// the last DamagedError when the retry budget ran out, ErrNoSpares when the
// pool is exhausted, or the original error for non-media failures (ErrHalted,
// out of range), which are never retried.
func WriteSectorsRetryFrom(d *Disk, addr, retries int, src ...[]byte) (retried, remapped int, err error) {
	n, err := countSectors(src)
	if err != nil {
		return
	}
	done := 0 // sectors of src on the platter
	tries := 0
	for {
		err = d.writeCommon(addr+done, src, done, nil)
		if err == nil {
			return
		}
		var de *DamagedError
		if !errors.As(err, &de) {
			return
		}
		if at := de.Addr - addr; at > done && at < n {
			// The prefix persisted: resume at the failing sector. Progress
			// restores the in-place budget.
			done = at
			tries = 0
		}
		if d.IsDamaged(de.Addr) {
			// Damaged could mean a defect born under this write — or old
			// damage the write was about to clear, hit by an unrelated
			// transient fault. One single-sector probe tells them apart.
			perr := d.WriteSectors(de.Addr, sectorOf(src, done))
			retried++
			if perr == nil && !d.IsDamaged(de.Addr) {
				// Cleared: transient over stale damage, no spare needed.
				done++
				if done == n {
					err = nil
					return
				}
				tries = 0
				continue
			}
			// The probe failed too, or "succeeded" with the damage still
			// there (a stuck defect absorbs writes silently): retire it.
			if rerr := d.Remap(de.Addr); rerr != nil {
				err = rerr
				return
			}
			remapped++
			tries = 0
			continue
		}
		if tries >= retries {
			return
		}
		tries++
		retried++
	}
}

// WriteSectorsRetry is WriteSectorsRetryFrom one buffer.
func WriteSectorsRetry(d *Disk, addr int, data []byte, retries int) (retried, remapped int, err error) {
	return WriteSectorsRetryFrom(d, addr, retries, data)
}

// sectorOf returns sector i of the gather list src.
func sectorOf(src [][]byte, i int) []byte {
	for _, b := range src {
		k := len(b) / SectorSize
		if i < k {
			return b[i*SectorSize : (i+1)*SectorSize]
		}
		i -= k
	}
	return nil
}
