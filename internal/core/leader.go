package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/alloc"
	"repro/internal/disk"
)

// Leader pages (Section 5.2). Every file's first physical page is a leader
// holding the file's uid, a preamble of its run table, and a checksum of the
// whole run table (Table 1). The leader carries no information needed for
// operation — it is a cross-check maintained by different code paths than
// the name table, so bugs in either show up as a mismatch. It is not used
// in normal recovery.
//
// Beyond the paper's cross-check fields, the leader also records the file's
// name, class, byte size, and create time. That makes it the FSD analogue
// of a CFS leader-plus-label: a volume whose name table is destroyed in
// both copies can still be salvaged by scanning the data region for leader
// pages and rebuilding real name-table entries from them (see salvage.go).
//
// Layout (all big-endian, CRC over everything before it):
//
//	magic u32 | uid u64 | version u32 | runCRC u32
//	nruns u16 | npre u16 | runs[npre] * (start u32, len u32)
//	byteSize u64 | createTime u64 | class u8 | nameLen u8 | name bytes
//	crc u32
//
// Worst case 24 + 8*8 + 18 + 255 + 4 = 365 bytes — well inside one sector.

const (
	leaderMagic    = 0x1EADE4F5
	leaderPreamble = 8 // run-table entries stored verbatim in the leader
)

func runTableCRC(runs []alloc.Run) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	for _, r := range runs {
		binary.BigEndian.PutUint32(b[0:], r.Start)
		binary.BigEndian.PutUint32(b[4:], r.Len)
		h.Write(b[:])
	}
	return h.Sum32()
}

// encodeLeader builds the 512-byte leader page for an entry.
func encodeLeader(e *Entry) []byte {
	buf := make([]byte, disk.SectorSize)
	be := binary.BigEndian
	be.PutUint32(buf[0:], leaderMagic)
	be.PutUint64(buf[4:], e.UID)
	be.PutUint32(buf[12:], e.Version)
	be.PutUint32(buf[16:], runTableCRC(e.Runs))
	n := len(e.Runs)
	if n > leaderPreamble {
		n = leaderPreamble
	}
	be.PutUint16(buf[20:], uint16(len(e.Runs)))
	be.PutUint16(buf[22:], uint16(n))
	off := 24
	for _, r := range e.Runs[:n] {
		be.PutUint32(buf[off:], r.Start)
		be.PutUint32(buf[off+4:], r.Len)
		off += 8
	}
	be.PutUint64(buf[off:], e.ByteSize)
	be.PutUint64(buf[off+8:], uint64(e.CreateTime))
	buf[off+16] = byte(e.Class)
	buf[off+17] = byte(len(e.Name))
	off += 18
	off += copy(buf[off:], e.Name)
	be.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// leaderBody validates the structure and checksum of a leader page and
// returns the offset of the trailing CRC, or ok=false.
func leaderBody(buf []byte) (crcOff int, ok bool) {
	be := binary.BigEndian
	if len(buf) < disk.SectorSize || be.Uint32(buf[0:]) != leaderMagic {
		return 0, false
	}
	npre := int(be.Uint16(buf[22:]))
	if npre > leaderPreamble {
		return 0, false
	}
	off := 24 + 8*npre
	if off+18 > len(buf) {
		return 0, false
	}
	off += 18 + int(buf[off+17])
	if off+4 > len(buf) || be.Uint32(buf[off:]) != crc32.ChecksumIEEE(buf[:off]) {
		return 0, false
	}
	return off, true
}

// leaderUID extracts the owning uid from a leader page, reporting whether
// the page is a structurally valid leader.
func leaderUID(buf []byte) (uint64, bool) {
	if _, ok := leaderBody(buf); !ok {
		return 0, false
	}
	return binary.BigEndian.Uint64(buf[4:]), true
}

// decodeLeaderEntry reconstructs a name-table entry from a leader page: the
// salvage path's raw material. The returned entry carries only the run-table
// preamble; totalRuns is the file's full run count, so totalRuns >
// len(e.Runs) marks a partially recoverable file (its tail runs are known
// only to the lost name table).
func decodeLeaderEntry(buf []byte) (e *Entry, totalRuns int, ok bool) {
	if _, bodyOK := leaderBody(buf); !bodyOK {
		return nil, 0, false
	}
	be := binary.BigEndian
	e = &Entry{
		UID:     be.Uint64(buf[4:]),
		Version: be.Uint32(buf[12:]),
	}
	totalRuns = int(be.Uint16(buf[20:]))
	npre := int(be.Uint16(buf[22:]))
	off := 24
	for i := 0; i < npre; i++ {
		e.Runs = append(e.Runs, alloc.Run{
			Start: be.Uint32(buf[off:]),
			Len:   be.Uint32(buf[off+4:]),
		})
		off += 8
	}
	e.ByteSize = be.Uint64(buf[off:])
	e.CreateTime = time.Duration(be.Uint64(buf[off+8:]))
	e.Class = Class(buf[off+16])
	nameLen := int(buf[off+17])
	e.Name = string(buf[off+18 : off+18+nameLen])
	e.LastUsed = e.CreateTime
	if e.Version == 0 || ValidateName(e.Name) != nil || e.Class == SymLink {
		return nil, 0, false
	}
	if totalRuns <= npre && be.Uint32(buf[16:]) != runTableCRC(e.Runs) {
		// A full run table must match its checksum exactly.
		return nil, 0, false
	}
	return e, totalRuns, true
}

// verifyLeader cross-checks a leader page against the name-table entry. A
// mismatch means a bug in the page allocator, the logging code, or crash
// recovery scribbled somewhere it should not have.
func verifyLeader(buf []byte, e *Entry) error {
	uid, ok := leaderUID(buf)
	if !ok {
		return fmt.Errorf("core: %q!%d: leader page is not a leader", e.Name, e.Version)
	}
	be := binary.BigEndian
	if uid != e.UID {
		return fmt.Errorf("core: %q!%d: leader uid %d != entry uid %d", e.Name, e.Version, uid, e.UID)
	}
	if v := be.Uint32(buf[12:]); v != e.Version {
		return fmt.Errorf("core: %q!%d: leader version %d", e.Name, e.Version, v)
	}
	if c := be.Uint32(buf[16:]); c != runTableCRC(e.Runs) {
		return fmt.Errorf("core: %q!%d: leader run-table checksum mismatch", e.Name, e.Version)
	}
	return nil
}
