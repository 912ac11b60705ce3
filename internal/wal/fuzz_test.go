package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/disk"
)

// The decoders of the log's own sectors — the anchor and a record's header —
// are total: any byte string decodes or is refused, never a panic. Replay
// reads whatever the log region holds, torn writes and stale thirds
// included, so neither may trust its input. The seeds are valid encodings
// plus the corpora under testdata/fuzz; `go test` runs them, `go test -fuzz
// FuzzDecodeAnchor ./internal/wal` explores.

// restamp writes the checksum of buf[from:to] at at, if buf is long enough:
// a fuzz input with restamp set passes the checksum, so the structure decode
// behind it runs.
func restamp(buf []byte, at, from, to int) {
	if len(buf) >= max(at+4, to) {
		binary.BigEndian.PutUint32(buf[at:], crc32.ChecksumIEEE(buf[from:to]))
	}
}

// FuzzDecodeAnchor: decodeAnchor refuses a buffer shorter than a sector and
// any sector that is not an anchor; one it accepts is, in its checksummed
// prefix, the sector encodeAnchor writes for it — an anchor from before the
// division count was recorded, with a zero there, reading as the paper's 3.
func FuzzDecodeAnchor(f *testing.F) {
	for _, a := range []anchor{
		{bootCount: 1, offset: 0, recordNum: 1, thirds: 3},
		{bootCount: 7, offset: 412, recordNum: 1<<40 + 5, thirds: 5},
	} {
		f.Add(encodeAnchor(a), false)
	}
	old := encodeAnchor(anchor{bootCount: 2, offset: 9, recordNum: 77})
	f.Add(old, false)
	f.Add([]byte{0x00}, false)
	f.Add(make([]byte, disk.SectorSize), true)
	f.Fuzz(func(t *testing.T, buf []byte, stamp bool) {
		if stamp {
			restamp(buf, 20, 0, 20)
		}
		a, ok := decodeAnchor(buf)
		if !ok {
			return
		}
		enc := encodeAnchor(a)
		if buf[12] == 0 {
			if a.thirds != 3 {
				t.Fatalf("an anchor with no division count decodes to %d divisions", a.thirds)
			}
			enc = encodeAnchor(anchor{bootCount: a.bootCount, offset: a.offset, recordNum: a.recordNum})
		}
		if !bytes.Equal(enc[:24], buf[:24]) {
			t.Fatalf("decoded %+v re-encodes to a different anchor", a)
		}
	})
}

// FuzzDecodeHeader: decodeHeader refuses a buffer shorter than a sector and
// any sector that is not a record header with 1..MaxImagesPerRecord
// descriptors under its checksum; one it accepts holds, at their offsets,
// exactly the fields and descriptors it decoded.
func FuzzDecodeHeader(f *testing.F) {
	l := &Log{recordNum: 41, bootCount: 3}
	for _, n := range []int{1, 7, MaxImagesPerRecord} {
		images := make([]PageImage, n)
		for i := range images {
			images[i] = PageImage{Kind: byte(i % 3), Target: uint64(1000 + 17*i), Data: bytes.Repeat([]byte{byte(i)}, 64)}
		}
		buf := make([]byte, disk.SectorSize)
		l.encodeHeader(buf, images, n%2 == 1)
		f.Add(buf, false)
	}
	f.Add([]byte{0x10}, false)
	f.Add(make([]byte, disk.SectorSize), true)
	f.Fuzz(func(t *testing.T, buf []byte, stamp bool) {
		if stamp {
			restamp(buf, 20, hdrFixed, len(buf))
		}
		h, ok := decodeHeader(buf)
		if !ok {
			return
		}
		if h.n < 1 || h.n > MaxImagesPerRecord || len(h.descs) != h.n || len(h.crcs) != h.n {
			t.Fatalf("decodeHeader accepted %d images with %d descriptors", h.n, len(h.descs))
		}
		be := binary.BigEndian
		if be.Uint64(buf[4:]) != h.recordNum || be.Uint32(buf[12:]) != h.bootCount || int(be.Uint16(buf[16:])) != h.n || h.endOfBatch != (buf[18] == 1) {
			t.Fatalf("decoded header %+v differs from its fixed fields", h)
		}
		for i, d := range h.descs {
			off := hdrFixed + i*descSize
			if d.Kind != buf[off] || d.Target != uint64(be.Uint32(buf[off+1:])) || h.crcs[i] != be.Uint32(buf[off+5:]) {
				t.Fatalf("descriptor %d decoded as %+v/%x, not as written", i, d, h.crcs[i])
			}
		}
	})
}
