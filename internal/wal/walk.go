package wal

import "hash/crc32"

// The log is read in one place. Replay, the copy audit (ScrubCopies) and
// Inspect all walk the records through walk, which alone decodes a header,
// validates an end page, knows where a record's copies lie and applies the
// division-skip and mirage rules. The callers keep their policy — what to do
// with a record, when to stop — and their way of reading, which they hand to
// walk as a sectorReader.

// A sectorReader fetches the sectors walk examines, as its caller reads them.
// Offsets are in the record area. load announces, once a record's length is
// known, the sectors after its header pair, [lo, hi), so the reader can fetch
// them together. get returns the sector at off if it can be read and passes
// ok, else nil; need is false when walk already holds a good twin of the
// sector, and a reader may then leave it unread.
type sectorReader interface {
	load(lo, hi int)
	get(off int, ok func([]byte) bool, need bool) []byte
}

// pair is walk's verdict on one two-copy structure of a record — the header,
// the end page, or an image: where its copies lie, and each copy's sector if
// it was read and checked out (nil if not).
type pair struct {
	at   [2]int
	data [2][]byte
}

// good returns the first copy that checked out, or nil.
func (p pair) good() []byte {
	if p.data[0] != nil {
		return p.data[0]
	}
	return p.data[1]
}

// fromCopy reports whether the structure was saved by its second copy alone.
func (p pair) fromCopy() bool { return p.data[0] == nil && p.data[1] != nil }

// record is one record walk found whole: a header and an end page that name
// it, and the verdict on every copy.
type record struct {
	h     header
	off   int    // area offset
	pairs []pair // header, end page, then image i at 2+i
}

func (r *record) images() []pair { return r.pairs[2:] }

// complete reports whether every image has a copy that checked out. Replay —
// and so Inspect — stops at the first record that is not: both copies of an
// image gone is outside the failure model.
func (r *record) complete() bool {
	for _, p := range r.images() {
		if p.good() == nil {
			return false
		}
	}
	return true
}

// Why a walk stopped.
type stopReason int

const (
	stopDone stopReason = iota // visit declined, or the record limit or a lap of the log came first
	stopGap                    // no header names the next record
	stopTorn                   // a header, but neither end page: the crash tore the write
)

// walk reads the log's records in order from the anchor through r, and hands
// each whole one to visit. Record numbers below limit are visited.
//
// Where no copy of the header names the expected record, the writer may have
// skipped the tail of a division because the record did not fit: walk tries
// the next division's start once before calling it the end of the log. A
// header found only at its copy's position can be a mirage — a record ending
// two sectors short of a division boundary puts the next division's first
// header there — so a copy-only header without an end page gets the same one
// jump before the record counts as torn. A header's record must fit in the
// record area. walk starts from the anchor a and returns why it stopped.
func (l *Log) walk(a anchor, r sectorReader, limit uint64, visit func(*record) bool) (stopReason, error) {
	tl := l.thirdLen()
	area := tl * l.divs
	off, rec := int(a.offset), a.recordNum
	skipped := false
	jump := func() bool {
		if skipped || off%tl == 0 {
			return false
		}
		skipped = true
		off = (off/tl + 1) % l.divs * tl
		return true
	}
	pairAt := func(a, b int, ok func([]byte) bool) pair {
		p := pair{at: [2]int{a, b}}
		p.data[0] = r.get(a, ok, true)
		p.data[1] = r.get(b, ok, p.data[0] == nil)
		return p
	}
	var rd record // lent to visit, like the sectors its pairs hold
	for budget := area + tl; budget > 0 && rec < limit; {
		var h header
		hdr := pairAt(off, off+2, func(buf []byte) bool {
			d, ok := decodeHeader(buf)
			ok = ok && d.recordNum == rec && d.bootCount == a.bootCount && off+5+2*d.n <= area
			if ok {
				h = d
			}
			return ok
		})
		budget -= 2
		if hdr.good() == nil {
			if jump() {
				continue
			}
			return stopGap, nil
		}
		n := h.n
		r.load(off+3, off+5+2*n)
		end := pairAt(off+3+n, off+4+2*n, func(buf []byte) bool { return validEnd(buf, rec, a.bootCount) })
		if end.good() == nil {
			if hdr.data[0] == nil && jump() {
				continue
			}
			return stopTorn, nil
		}
		skipped = false
		rd = record{h: h, off: off, pairs: append(rd.pairs[:0], hdr, end)}
		for i, crc := range h.crcs {
			rd.pairs = append(rd.pairs, pairAt(off+3+i, off+4+n+i, func(buf []byte) bool { return crc32.ChecksumIEEE(buf) == crc }))
		}
		if !visit(&rd) {
			return stopDone, nil
		}
		budget -= 3 + 2*n
		rec++
		if off += 5 + 2*n; off >= area {
			off = 0
		}
	}
	return stopDone, nil
}
