package wal

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// fuzzLogSize is the log FuzzReplay walks: three 120-sector divisions.
const fuzzLogSize = anchorSectors + 3*120

// fuzzDisk is a disk with a freshly formatted fuzzLogSize log at logBase.
func fuzzDisk(tb testing.TB) (*disk.Disk, sim.Clock, *Log) {
	tb.Helper()
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := Format(d, logBase, fuzzLogSize, clk, Config{Interval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	return d, clk, l
}

// replaySeed is the record area of a real log: forced batches of 41, 2, 3 and
// 42 images of all three kinds. The first and the last take two records each,
// and the last one's first record skips to the next division.
func replaySeed(tb testing.TB) []byte {
	tb.Helper()
	d, _, l := fuzzDisk(tb)
	n := 0
	for _, size := range []int{41, 2, 3, 42} {
		batch := make([]PageImage, size)
		for i := range batch {
			batch[i] = img(uint8(n%3), uint64(40+n), byte(n+1))
			n++
		}
		if _, err := l.Append(batch...); err != nil {
			tb.Fatal(err)
		}
		if err := l.Force(); err != nil {
			tb.Fatal(err)
		}
	}
	area, err := d.ReadSectors(logBase+anchorSectors, fuzzLogSize-anchorSectors)
	if err != nil {
		tb.Fatal(err)
	}
	return area
}

// restampRecords makes every sector of area that carries a header's magic —
// scanning on from the end of each record it makes — a record walk can accept, as far as checksums and twins go: the image count
// clamped to what fits, each descriptor's CRC that of its image, the header's
// own CRC, an end page naming the header's record and boot, and the second
// copies equal to the first. What the fuzzer chose — record numbers, kinds,
// targets, end-of-batch flags, image bytes — stays.
func restampRecords(area []byte) {
	const ss = disk.SectorSize
	sectors := len(area) / ss
	sec := func(i int) []byte { return area[i*ss : (i+1)*ss] }
	be := binary.BigEndian
	for off := 0; off+5+2 <= sectors; {
		h := sec(off)
		if be.Uint32(h) != recMagic {
			off++
			continue
		}
		n := min(max(int(be.Uint16(h[16:])), 1), MaxImagesPerRecord, (sectors-off-5)/2)
		be.PutUint16(h[16:], uint16(n))
		for i := 0; i < n; i++ {
			be.PutUint32(h[hdrFixed+i*descSize+5:], crc32.ChecksumIEEE(sec(off+3+i)))
			copy(sec(off+4+n+i), sec(off+3+i))
		}
		be.PutUint32(h[20:], crc32.ChecksumIEEE(h[hdrFixed:]))
		end := sec(off + 3 + n)
		clear(end)
		be.PutUint32(end, recMagic+1)
		copy(end[4:16], h[4:16])
		copy(sec(off+2), h)
		copy(sec(off+4+2*n), end)
		off += 5 + 2*n
	}
}

// editArea applies edits to area, five bytes an edit: an op, a 24-bit byte
// offset and a value. By op mod 4 an edit sets the byte at the offset, XORs
// it, copies the offset's sector value sectors further on — a stale or
// duplicated record — or zeroes the offset's sector — a lost write.
func editArea(area, edits []byte) {
	const ss = disk.SectorSize
	for ; len(edits) >= 5; edits = edits[5:] {
		off := int(edits[1])<<16 | int(edits[2])<<8 | int(edits[3])
		off %= len(area)
		at, val := off/ss*ss, edits[4]
		switch edits[0] % 4 {
		case 0:
			area[off] = val
		case 1:
			area[off] ^= val
		case 2:
			to := (at + int(val)*ss) % len(area)
			copy(area[to:to+ss], area[at:at+ss])
		case 3:
			clear(area[at : at+ss])
		}
	}
}

// completeBatches is what Replay must make of the records info lists: each
// (kind, target) their complete batches log, once, sorted by kind and then
// target; how many images those batches hold; and how many the unterminated
// tail holds.
func completeBatches(info LogInfo) (refs []ImageRef, images, tail int) {
	var pending []ImageRef
	for _, r := range info.Records {
		pending = append(pending, r.Targets...)
		if r.EndOfBatch {
			refs, images, pending = append(refs, pending...), images+len(pending), nil
		}
	}
	slices.SortFunc(refs, func(a, b ImageRef) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Target, b.Target))
	})
	return slices.Compact(refs), images, len(pending)
}

// refsOf names the images ims holds, in order.
func refsOf(ims []PageImage) []ImageRef {
	refs := make([]ImageRef, len(ims))
	for i, im := range ims {
		refs[i] = ImageRef{Kind: im.Kind, Target: im.Target}
	}
	return refs
}

// FuzzReplay: the log walk is total over whatever the record area holds —
// torn writes, lost and stale records, garbage with valid checksums. Replay
// never panics; it returns one image of each target the complete,
// end-flagged batches log and nothing else, and discards the images of an
// unterminated tail; and Inspect, the read-only walk, lists exactly the
// records Replay walked. The area is a real log of several multi-record batches (replaySeed)
// under the fuzzer's edits (editArea; testdata/fuzz holds a torn tail, a lost
// record, a stale record and a flipped image byte); with the bool set,
// restampRecords repairs the checksums and twins after the edits, so the
// batch rules behind them run.
func FuzzReplay(f *testing.F) {
	seed := replaySeed(f)
	f.Add([]byte(nil), false)
	f.Add([]byte(nil), true)
	f.Fuzz(func(t *testing.T, edits []byte, stamp bool) {
		area := slices.Clone(seed)
		editArea(area, edits)
		if stamp {
			restampRecords(area)
		}
		d, clk, _ := fuzzDisk(t)
		if err := d.WriteSectors(logBase+anchorSectors, area); err != nil {
			t.Fatal(err)
		}
		l, err := Open(d, logBase, fuzzLogSize, clk, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ims, rs, err := l.Replay()
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range ims {
			if len(im.Data) != disk.SectorSize {
				t.Fatalf("replay returned a %d-byte image", len(im.Data))
			}
		}
		info, err := Inspect(d, logBase, fuzzLogSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Records) != rs.Records {
			t.Fatalf("Inspect lists %d records, replay walked %d", len(info.Records), rs.Records)
		}
		want, images, tail := completeBatches(info)
		if got := refsOf(ims); !slices.Equal(got, want) || rs.Images != images || rs.TailDiscarded != tail {
			t.Fatalf("replay returned %d targets (%d images counted, %d discarded); the complete batches Inspect lists log %d targets in %d images, the tail %d",
				len(got), rs.Images, rs.TailDiscarded, len(want), images, tail)
		}
	})
}
