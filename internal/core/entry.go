// Package core implements FSD — the paper's reimplemented Cedar file system
// with log-based metadata recovery and group commit.
//
// All information about a file (name, version, properties, and the run table
// that CFS kept in separate header sectors) lives in the file name table, a
// B+tree of 2 KB pages stored twice near the volume's centre cylinders.
// Updates go to cached pages and are captured by the redo log
// (internal/wal); group commit forces the log at the first operation
// boundary (or Tick) after its deadline expires — the paper's fixed half
// second by default, a load-adaptive deadline between the 5 ms floor and
// that ceiling with Config.AdaptiveCommit, or at every update with a
// negative Config.GroupCommitInterval.
// Each file also has a leader page used only for software checking.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
)

// Class distinguishes the three kinds of file name table entries the paper
// lists: local files, symbolic links to remote files, and cached copies of
// remote files.
type Class uint8

// Entry classes.
const (
	Local Class = iota
	SymLink
	Cached
)

func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case SymLink:
		return "symlink"
	case Cached:
		return "cached"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Entry is one file name table record: everything FSD knows about a file.
// CFS split this information between the name table, header sectors, and
// labels; FSD keeps it all here (Table 1 of the paper).
type Entry struct {
	Name       string
	Version    uint32
	Class      Class
	Keep       uint16 // versions to retain; 0 = keep all
	UID        uint64
	ByteSize   uint64
	CreateTime time.Duration // simulated time of creation
	LastUsed   time.Duration // last-used time (hot property for cached files)
	Runs       []alloc.Run   // leader page first, then data pages
	LinkTarget string        // SymLink only
}

// Pages returns the number of data pages (excluding the leader).
func (e *Entry) Pages() int {
	n := alloc.Pages(e.Runs)
	if n == 0 {
		return 0
	}
	return n - 1
}

// LeaderAddr returns the disk sector of the entry's leader page.
func (e *Entry) LeaderAddr() (int, bool) {
	if len(e.Runs) == 0 {
		return 0, false
	}
	return int(e.Runs[0].Start), true
}

// ContiguousFrom returns the disk sector of logical page `page` — page 0 is
// the sector after the leader — and the number of pages contiguous on disk
// starting there, capped at want. It is
// the one walk from page to sector: the rest of the page's run is all that is
// contiguous, because no run table holds a run that ends where the next one
// begins (alloc.Join makes every table), so a transfer plan is this walk, one
// request per run.
func (e *Entry) ContiguousFrom(page, want int) (addr, n int, err error) {
	off := page + 1
	for _, r := range e.Runs {
		if off < int(r.Len) {
			return int(r.Start) + off, min(int(r.Len)-off, want), nil
		}
		off -= int(r.Len)
	}
	return 0, 0, fmt.Errorf("core: page %d beyond %q!%d", page, e.Name, e.Version)
}

// ErrBadName reports a file name that cannot be encoded as a name-table
// key: empty, containing a NUL byte, or longer than 255 bytes.
var ErrBadName = errors.New("core: file names must be non-empty, free of NUL bytes, and at most 255 bytes")

// ValidateName checks a file name for key-encoding safety.
func ValidateName(name string) error {
	if name == "" || strings.ContainsRune(name, 0) {
		return ErrBadName
	}
	if len(name) > 255 {
		return fmt.Errorf("%w: %d bytes", ErrBadName, len(name))
	}
	return nil
}

// entryKey encodes (name, version) so that versions of the same name sort
// adjacently and ascending.
func entryKey(name string, version uint32) []byte {
	k := make([]byte, 0, len(name)+5)
	k = append(k, name...)
	k = append(k, 0)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], version)
	return append(k, v[:]...)
}

// namePrefix returns the scan prefix covering all versions of name.
func namePrefix(name string) []byte {
	return append([]byte(name), 0)
}

// splitKey decodes an entryKey.
func splitKey(k []byte) (name string, version uint32, ok bool) {
	if len(k) < 5 || k[len(k)-5] != 0 {
		return "", 0, false
	}
	return string(k[:len(k)-5]), binary.BigEndian.Uint32(k[len(k)-4:]), true
}

// versionOf decodes k as an entryKey of name, without splitKey's copy of
// the name.
func versionOf(k []byte, name string) (version uint32, ok bool) {
	if len(k) != len(name)+5 || k[len(name)] != 0 || string(k[:len(name)]) != name {
		return 0, false
	}
	return binary.BigEndian.Uint32(k[len(name)+1:]), true
}

// Entry wire format (values in the name table):
//
//	u8  class | u16 keep | u64 uid | u64 byteSize
//	u64 createTime | u64 lastUsed
//	u16 nruns | nruns * (u32 start, u32 len)
//	u16 linkLen | linkTarget bytes
//
// Name and version live in the key, not the value.
func encodeEntry(e *Entry) []byte {
	buf := make([]byte, 0, entrySize(e))
	var tmp [8]byte
	put16 := func(v uint16) {
		binary.BigEndian.PutUint16(tmp[:2], v)
		buf = append(buf, tmp[:2]...)
	}
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:8], v)
		buf = append(buf, tmp[:8]...)
	}
	buf = append(buf, byte(e.Class))
	put16(e.Keep)
	put64(e.UID)
	put64(e.ByteSize)
	put64(uint64(e.CreateTime))
	put64(uint64(e.LastUsed))
	put16(uint16(len(e.Runs)))
	for _, r := range e.Runs {
		put32(r.Start)
		put32(r.Len)
	}
	put16(uint16(len(e.LinkTarget)))
	buf = append(buf, e.LinkTarget...)
	return buf
}

// entrySize is len(encodeEntry(e)).
func entrySize(e *Entry) int { return 39 + 8*len(e.Runs) + len(e.LinkTarget) }

// entryFits reports, as btree.ErrTooLarge, an entry the name table would
// refuse. Whatever lengthens a run table checks it while it can still fail
// the one call that asked: on an asynchronous volume a Put refused in the
// applier takes the whole volume read-only.
func entryFits(e *Entry) error {
	if !btree.Fits(NTPageSize, len(e.Name)+5, entrySize(e)) {
		return fmt.Errorf("core: %q!%d with %d runs: %w", e.Name, e.Version, len(e.Runs), btree.ErrTooLarge)
	}
	return nil
}

// entryUID is the uid of an encoded entry, 0 (no file's) if buf is too short
// to hold one.
func entryUID(buf []byte) uint64 {
	if len(buf) < 11 {
		return 0
	}
	return binary.BigEndian.Uint64(buf[3:])
}

func decodeEntry(name string, version uint32, buf []byte) (*Entry, error) {
	fail := func() (*Entry, error) {
		return nil, fmt.Errorf("core: corrupt name table value for %q!%d", name, version)
	}
	if len(buf) < 37 {
		return fail()
	}
	e := &Entry{Name: name, Version: version}
	e.Class = Class(buf[0])
	e.Keep = binary.BigEndian.Uint16(buf[1:])
	e.UID = binary.BigEndian.Uint64(buf[3:])
	e.ByteSize = binary.BigEndian.Uint64(buf[11:])
	e.CreateTime = time.Duration(binary.BigEndian.Uint64(buf[19:]))
	e.LastUsed = time.Duration(binary.BigEndian.Uint64(buf[27:]))
	n := int(binary.BigEndian.Uint16(buf[35:]))
	off := 37
	if len(buf) < off+8*n+2 {
		return fail()
	}
	for i := 0; i < n; i++ {
		e.Runs = append(e.Runs, alloc.Run{
			Start: binary.BigEndian.Uint32(buf[off:]),
			Len:   binary.BigEndian.Uint32(buf[off+4:]),
		})
		off += 8
	}
	ll := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if len(buf) < off+ll {
		return fail()
	}
	e.LinkTarget = string(buf[off : off+ll])
	return e, nil
}
