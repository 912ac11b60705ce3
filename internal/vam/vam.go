// Package vam implements the Volume Allocation Map: the bitmap of free disk
// pages that FSD keeps entirely in volatile memory (Section 5.5 of the
// paper).
//
// No disk writes happen during normal operation. On a controlled shutdown
// the map is written to a save area with a validity stamp; at boot it is
// loaded if properly saved and otherwise reconstructed from the file name
// table. The package does no I/O of its own: Save, Invalidate and Load take
// the caller's sector read or write, so the save area is read and written
// under the caller's fault policy. The map holds no pending frees: the file
// system keeps a deleted file's runs aside and marks them free only once the
// group commit that made the deletion durable has landed.
package vam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"repro/internal/disk"
)

// ErrNoSpace is returned when an allocation cannot be satisfied at all.
var ErrNoSpace = errors.New("vam: no free pages")

// ErrNotSaved is returned by Load when the save area does not hold a validly
// stamped map, signalling the mount path to reconstruct instead.
var ErrNotSaved = errors.New("vam: allocation map was not properly saved")

// VAM is the in-memory free-page bitmap. It is not safe for concurrent use;
// the file system serializes access.
type VAM struct {
	n     int
	free  []uint64 // bit set = page free
	nfree int
}

// New returns a VAM of n pages with every page marked allocated; callers
// free the regions that are actually available.
func New(n int) *VAM {
	words := (n + 63) / 64
	return &VAM{n: n, free: make([]uint64, words)}
}

// Pages returns the total number of pages tracked.
func (v *VAM) Pages() int { return v.n }

// FreeCount returns the number of allocatable pages.
func (v *VAM) FreeCount() int { return v.nfree }

// IsFree reports whether page p is allocatable.
func (v *VAM) IsFree(p int) bool {
	return v.free[p/64]&(1<<(p%64)) != 0
}

func (v *VAM) checkRange(p, count int) {
	if p < 0 || count < 0 || p+count > v.n {
		panic(fmt.Sprintf("vam: range [%d,%d) out of [0,%d)", p, p+count, v.n))
	}
}

// MarkFree marks count pages starting at p as allocatable immediately.
func (v *VAM) MarkFree(p, count int) {
	v.checkRange(p, count)
	for i := p; i < p+count; i++ {
		w, b := i/64, uint64(1)<<(i%64)
		if v.free[w]&b == 0 {
			v.free[w] |= b
			v.nfree++
		}
	}
}

// MarkAllocated marks count pages starting at p as in use.
func (v *VAM) MarkAllocated(p, count int) {
	v.checkRange(p, count)
	for i := p; i < p+count; i++ {
		w, b := i/64, uint64(1)<<(i%64)
		if v.free[w]&b != 0 {
			v.free[w] &^= b
			v.nfree--
		}
	}
}

// FindRun returns the first run of exactly want contiguous free pages within
// [lo, hi), searching upward from lo when dir > 0 and downward from hi when
// dir < 0. If no run of want pages exists it returns the largest available
// run in the region (possibly length 0).
//
// The scan walks the bitmap a word at a time — skipping fully allocated
// words and swallowing fully free ones in one step — because this runs
// under the allocator lock on every create and extend; a bit-at-a-time
// scan of the default 600k-page volume was the file server's throughput
// ceiling under the 10k-client soak. Each direction walks from its own end
// and stops at the first fit; only a search that finds none passes over the
// whole window, for the largest-run fallback (ties keep the run met first).
func (v *VAM) FindRun(want, lo, hi, dir int) (start, length int) {
	if lo < 0 {
		lo = 0
	}
	if hi > v.n {
		hi = v.n
	}
	if lo >= hi {
		return 0, 0
	}
	if want < 1 {
		want = 1
	}
	if dir < 0 {
		return v.findRunDown(want, lo, hi)
	}
	bestStart, bestLen := 0, 0 // largest-run fallback
	runStart, runLen := -1, 0
	closeRun := func() {
		if runStart >= 0 && runLen > bestLen {
			bestStart, bestLen = runStart, runLen
		}
		runStart, runLen = -1, 0
	}
	w0, w1 := lo/64, (hi-1)/64
	for wi := w0; wi <= w1; wi++ {
		word := v.window(wi, lo, hi)
		base := wi * 64
		if word == 0 {
			closeRun()
			continue
		}
		if word == ^uint64(0) {
			if runStart >= 0 && runStart+runLen == base {
				runLen += 64
			} else {
				closeRun()
				runStart, runLen = base, 64
			}
			if runLen >= want {
				return runStart, want
			}
			continue
		}
		// Mixed word: walk its free segments low to high.
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			ones := bits.TrailingZeros64(^(word >> uint(tz)))
			segStart := base + tz
			if runStart >= 0 && segStart == runStart+runLen {
				runLen += ones
			} else {
				closeRun()
				runStart, runLen = segStart, ones
			}
			if runLen >= want {
				return runStart, want
			}
			if tz+ones >= 64 {
				word = 0
			} else {
				word &^= (1<<uint(ones) - 1) << uint(tz)
			}
		}
	}
	closeRun()
	return bestStart, bestLen
}

// findRunDown is FindRun for dir < 0: the top want pages of the highest run
// of at least want free pages in [lo, hi). It walks the words from hi down,
// growing the current run [runLo, runTop) downward, and returns the moment
// the run holds want pages — its top is fixed by then.
func (v *VAM) findRunDown(want, lo, hi int) (start, length int) {
	bestStart, bestLen := 0, 0 // largest-run fallback
	runLo, runTop := -1, -1
	closeRun := func() {
		if runLo >= 0 && runTop-runLo > bestLen {
			bestStart, bestLen = runLo, runTop-runLo
		}
		runLo, runTop = -1, -1
	}
	w0, w1 := lo/64, (hi-1)/64
	for wi := w1; wi >= w0; wi-- {
		word := v.window(wi, lo, hi)
		base := wi * 64
		if word == 0 {
			closeRun()
			continue
		}
		if word == ^uint64(0) {
			if runLo != base+64 {
				closeRun()
				runTop = base + 64
			}
			runLo = base
			if runTop-runLo >= want {
				return runTop - want, want
			}
			continue
		}
		// Mixed word: walk its free segments high to low.
		for word != 0 {
			lz := bits.LeadingZeros64(word)
			ones := bits.LeadingZeros64(^(word << uint(lz)))
			segTop := base + 64 - lz
			if runLo != segTop {
				closeRun()
				runTop = segTop
			}
			runLo = segTop - ones
			if runTop-runLo >= want {
				return runTop - want, want
			}
			if lz+ones >= 64 {
				word = 0
			} else {
				word &^= (1<<uint(ones) - 1) << uint(64-lz-ones)
			}
		}
	}
	closeRun()
	return bestStart, bestLen
}

// FindRunAfter returns the start of a run of want free pages in [lo, hi)
// whose first page comes soonest after slot in a cycle of period pages — the
// one that minimises (start − slot) mod period, the highest on a tie. A hole
// longer than want offers every start that leaves want pages in it. ok is
// false when no hole in the window holds want pages. It marks nothing.
//
// With period the sectors of a track and slot where a transfer ends, it is
// the hole a head that has just written there reaches first on the same
// cylinder. Like FindRun it walks the bitmap a word at a time.
func (v *VAM) FindRunAfter(want, lo, hi, slot, period int) (start int, ok bool) {
	best := period // distance of the best start so far; period is none
	v.freeRuns(lo, hi, func(a, b int) {
		last := b - want // the highest start the hole offers
		if last < a {
			return
		}
		p := a + mod(slot-a, period) // the first start on slot
		d := 0
		if p <= last {
			p += (last - p) / period * period // the highest on slot
		} else {
			p, d = a, mod(a-slot, period) // every start is late; a least
		}
		if d < best || d == best && p > start {
			start, best = p, d
		}
	})
	return start, best < period
}

// Fits returns how many runs of want pages the free pages of [lo, hi) hold
// side by side: the sum over its holes of each hole's length / want.
func (v *VAM) Fits(want, lo, hi int) int {
	n := 0
	v.freeRuns(lo, hi, func(a, b int) { n += (b - a) / want })
	return n
}

// FirstAllocated returns the lowest page of [lo, hi) that is not
// allocatable, or hi if every page is free. It walks the bitmap a word at a
// time.
func (v *VAM) FirstAllocated(lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, v.n)
	for wi := lo / 64; lo < hi && wi <= (hi-1)/64; wi++ {
		if used := ^v.free[wi] & span(wi, lo, hi); used != 0 {
			return wi*64 + bits.TrailingZeros64(used)
		}
	}
	return hi
}

// freeRuns calls fn(a, b) for each maximal hole [a, b) of free pages inside
// [lo, hi), in ascending order, a word of the bitmap at a time.
func (v *VAM) freeRuns(lo, hi int, fn func(a, b int)) {
	lo, hi = max(lo, 0), min(hi, v.n)
	if lo >= hi {
		return
	}
	runStart := -1
	for wi := lo / 64; wi <= (hi-1)/64; wi++ {
		word, base := v.window(wi, lo, hi), wi*64
		for bit := 0; bit < 64; {
			if runStart < 0 {
				if word>>bit == 0 {
					break
				}
				bit += bits.TrailingZeros64(word >> bit)
				runStart = base + bit
			}
			ones := bits.TrailingZeros64(^(word >> bit))
			if bit+ones < 64 {
				bit += ones
				fn(runStart, base+bit)
				runStart = -1
			} else {
				bit = 64 // the hole goes on into the next word
			}
		}
	}
	if runStart >= 0 {
		fn(runStart, hi)
	}
}

// mod is a mod m in [0, m).
func mod(a, m int) int {
	if a %= m; a < 0 {
		a += m
	}
	return a
}

// window returns free-bitmap word wi with the bits outside [lo, hi) cleared.
func (v *VAM) window(wi, lo, hi int) uint64 { return v.free[wi] & span(wi, lo, hi) }

// span is the mask of the bits of bitmap word wi that lie in [lo, hi).
func span(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if wi == lo/64 {
		m &^= 1<<(lo%64) - 1
	}
	if wi == (hi-1)/64 {
		if rem := hi % 64; rem != 0 {
			m &= 1<<rem - 1
		}
	}
	return m
}

// Save layout: one header sector then ceil(n/4096) bitmap sectors.
const (
	saveMagic = 0x5A4D4156 // "VAMZ"
)

// SaveSectors returns the size of the save area needed for n pages.
func SaveSectors(n int) int {
	return 1 + (n+disk.SectorSize*8-1)/(disk.SectorSize*8)
}

// Save writes the map and a validity stamp to the save area at base through
// write, the caller's sector write.
func (v *VAM) Save(write func(addr int, data []byte) error, base int) error {
	bitmapSectors := SaveSectors(v.n) - 1
	buf := make([]byte, bitmapSectors*disk.SectorSize)
	for i, word := range v.free {
		binary.BigEndian.PutUint64(buf[i*8:], word)
	}
	hdr := make([]byte, disk.SectorSize)
	binary.BigEndian.PutUint32(hdr[0:], saveMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(v.n))
	binary.BigEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(buf))
	// Write the bitmap first, the validity header last: a crash between
	// the two leaves an unstamped save that Load rejects.
	if err := write(base+1, buf); err != nil {
		return err
	}
	return write(base, hdr)
}

// Invalidate destroys the validity stamp through write. Mount calls it right
// after a successful Load: from that moment the on-disk copy is stale, and a
// crash must trigger reconstruction.
func Invalidate(write func(addr int, data []byte) error, base int) error {
	return write(base, make([]byte, disk.SectorSize))
}

// Load reads a saved map of n pages from base through read, the caller's
// sector read into dst. It returns ErrNotSaved when a read fails, the stamp
// is missing or the checksum fails.
func Load(read func(addr int, dst ...[]byte) error, base, n int) (*VAM, error) {
	hdr := make([]byte, disk.SectorSize)
	if err := read(base, hdr); err != nil {
		return nil, ErrNotSaved
	}
	if binary.BigEndian.Uint32(hdr[0:]) != saveMagic || binary.BigEndian.Uint32(hdr[4:]) != uint32(n) {
		return nil, ErrNotSaved
	}
	buf := make([]byte, (SaveSectors(n)-1)*disk.SectorSize)
	if err := read(base+1, buf); err != nil {
		return nil, ErrNotSaved
	}
	if crc32.ChecksumIEEE(buf) != binary.BigEndian.Uint32(hdr[8:]) {
		return nil, ErrNotSaved
	}
	v := New(n)
	for i := range v.free {
		v.free[i] = binary.BigEndian.Uint64(buf[i*8:])
	}
	for _, w := range v.free {
		v.nfree += bits.OnesCount64(w)
	}
	// Clear any bits beyond n (defensive; Save never sets them).
	if rem := n % 64; rem != 0 {
		last := len(v.free) - 1
		extra := v.free[last] &^ (1<<rem - 1)
		v.nfree -= bits.OnesCount64(extra)
		v.free[last] &= 1<<rem - 1
	}
	return v, nil
}
