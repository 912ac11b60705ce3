package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/alloc"
	"repro/internal/disk"
)

// The decoders of what the disk hands back — a name-table value, a leader
// page, the root page, a salvage checkpoint — are total: any byte string
// decodes or is refused, never a panic.
// One-walk lookups (newestLocked) decode the value straight from the page a
// scan borrowed, and salvage decodes whatever sector carries a leader's
// magic, so neither may trust its input. The seeds are encodings of entries
// of every shape plus the corpora under testdata/fuzz; `go test` runs them,
// `go test -fuzz FuzzDecodeEntry ./internal/core` explores.

// sampleEntries are entries of the shapes the name table holds: a small
// file, a fragmented one, an empty one, a link.
func sampleEntries() []*Entry {
	return []*Entry{
		{Name: "dir/small", Version: 1, UID: 7, ByteSize: 900, CreateTime: 5, LastUsed: 9,
			Runs: []alloc.Run{{Start: 1000, Len: 3}}},
		{Name: "dir/big", Version: 12, Class: Cached, Keep: 2, UID: 1 << 40, ByteSize: 40 << 10,
			Runs: []alloc.Run{{Start: 5000, Len: 1}, {Start: 9000, Len: 64}, {Start: 9100, Len: 17}}},
		{Name: "dir/empty", Version: 3, UID: 8, Runs: []alloc.Run{{Start: 77, Len: 1}}},
		{Name: "dir/link", Version: 1, Class: SymLink, UID: 9, LinkTarget: "[server]<dir>remote.txt!4"},
	}
}

// FuzzDecodeEntry: decodeEntry refuses a value it cannot decode, and a value
// it decodes is exactly the encoding of what it decoded — nothing after it,
// no varint longer than its shortest form — with entryUID reading its uid.
// The seeds are the sample entries, the extreme one and the empty value; the
// corpus holds a run count and a link length past the value, trailing bytes,
// an overlong varint and a class above a byte, each refused.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range append(sampleEntries(), extremeEntry()) {
		f.Add(encodeEntry(e))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, val []byte) {
		e, err := decodeEntry("fuzz/name", 5, val)
		if err != nil {
			if e != nil {
				t.Fatalf("decodeEntry returned an entry with its error %v", err)
			}
			return
		}
		if enc := encodeEntry(e); !bytes.Equal(val, enc) {
			t.Fatalf("decoded %+v re-encodes to %x, not %x", e, enc, val)
		}
		if entrySize(e) != len(val) {
			t.Fatalf("entrySize %d of a %d-byte value", entrySize(e), len(val))
		}
		if entryUID(val) != e.UID {
			t.Fatalf("entryUID %d, decoded uid %d", entryUID(val), e.UID)
		}
	})
}

// FuzzDecodeLeaderEntry: decodeLeaderEntry refuses a sector that is not a
// well-formed leader, and one it accepts with its whole run table passes the
// cross-check against what it decoded and is, up to its checksum, the leader
// encodeLeader writes for it.
func FuzzDecodeLeaderEntry(f *testing.F) {
	for _, e := range sampleEntries() {
		if e.Class != SymLink {
			f.Add(encodeLeader(e))
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, 512))
	f.Fuzz(func(t *testing.T, sec []byte) {
		e, total, ok := decodeLeaderEntry(sec)
		if !ok {
			if e != nil {
				t.Fatal("decodeLeaderEntry refused a sector but returned an entry")
			}
			return
		}
		if uid, uok := leaderUID(sec); !uok || uid != e.UID {
			t.Fatalf("leaderUID = %d, %v; decoded uid %d", uid, uok, e.UID)
		}
		if total != len(e.Runs) {
			return // a partial run table: only salvage's preamble is known
		}
		if err := verifyLeader(sec, e); err != nil {
			t.Fatalf("decoded leader fails its own cross-check: %v", err)
		}
		crcOff, _ := leaderBody(sec)
		if enc := encodeLeader(e); !bytes.Equal(enc[:crcOff+4], sec[:crcOff+4]) {
			t.Fatalf("decoded %+v re-encodes to a different leader", e)
		}
	})
}

// restamp writes the checksum of buf[:off] at off, if buf is long enough to
// hold it: a fuzz input with restamp set passes the checksum, so the
// structure decode behind it runs — garbage under a good checksum is what a
// logic bug writes.
func restamp(buf []byte, off int) {
	if len(buf) >= off+4 {
		binary.BigEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	}
}

// FuzzDecodeRoot: decodeRoot refuses a buffer shorter than a sector and any
// page that is not a well-formed root; one it accepts has a valid layout and
// is, in its checksummed prefix, the page encodeRoot writes for it but for
// the magic. A root under the fixed-width entry format's magic decodes as
// such (fixedEntries, which readRoot turns into ErrVolumeFormat;
// TestOldFormatVolumeRefused mounts one), and no other root does.
func FuzzDecodeRoot(f *testing.F) {
	for _, edge := range []bool{false, true} {
		cfg := testConfig()
		cfg.EdgePlacement = edge
		lay, err := computeLayout(disk.SmallGeometry, disk.DefaultParams, cfg)
		if err != nil {
			f.Fatal(err)
		}
		root := encodeRoot(rootPage{layout: lay, clean: edge, uidChunk: 3, formatted: 1e9})
		f.Add(root, false)
		f.Add(fixedEntryRoot(root), false)
	}
	f.Add([]byte{0xF5}, false)
	f.Add(make([]byte, disk.SectorSize), true)
	f.Fuzz(func(t *testing.T, buf []byte, stamp bool) {
		if stamp {
			restamp(buf, censorOff)
		}
		r, ok := decodeRoot(buf)
		if !ok {
			return
		}
		if !r.layout.valid() {
			t.Fatalf("decodeRoot accepted the invalid layout %+v", r.layout)
		}
		if fixed := binary.BigEndian.Uint32(buf) == rootMagicFixed; r.fixedEntries != fixed {
			t.Fatalf("fixedEntries %v for magic %#x", r.fixedEntries, binary.BigEndian.Uint32(buf))
		}
		want := bytes.Clone(buf[:censorOff+4])
		if r.fixedEntries { // decodes, and is written under rootMagic
			binary.BigEndian.PutUint32(want, rootMagic)
			restamp(want, censorOff)
		}
		if want[65] == 1 { // the retired VAM-logging flag decodes, and is written as 0
			want[65] = 0
			restamp(want, censorOff)
		}
		if enc := encodeRoot(r); !bytes.Equal(enc[:censorOff+4], want) {
			t.Fatalf("decoded %+v re-encodes to a different root page", r)
		}
	})
}

// FuzzDecodeSalvageCheckpoint: decodeSalvageCheckpoint refuses a buffer
// shorter than a sector and any sector that is not a checkpoint of a known
// phase; one it accepts is, in its checksummed prefix, the sector
// encodeSalvageCheckpoint writes for it.
func FuzzDecodeSalvageCheckpoint(f *testing.F) {
	for ph := salvageSweep; ph <= salvageFinalize; ph++ {
		f.Add(encodeSalvageCheckpoint(salvageCheckpoint{phase: ph, cursor: 4000, cands: 12, damaged: 1, manifestCRC: 0xDEADBEEF}), false)
	}
	f.Add([]byte{0x5A}, false)
	f.Add(make([]byte, disk.SectorSize), true)
	f.Fuzz(func(t *testing.T, buf []byte, stamp bool) {
		if stamp {
			restamp(buf, salvageCkCRCOff)
		}
		ck, ok := decodeSalvageCheckpoint(buf)
		if !ok {
			return
		}
		if ck.phase < salvageSweep || ck.phase > salvageFinalize {
			t.Fatalf("decodeSalvageCheckpoint accepted phase %d", ck.phase)
		}
		if enc := encodeSalvageCheckpoint(ck); !bytes.Equal(enc[:salvageCkCRCOff+4], buf[:salvageCkCRCOff+4]) {
			t.Fatalf("decoded %+v re-encodes to a different checkpoint", ck)
		}
	})
}
