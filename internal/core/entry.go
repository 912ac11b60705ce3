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
	"math/bits"
	"slices"
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

// Entry wire format (values in the name table), every integer a varint
// (encoding/binary's, in its shortest form):
//
//	class | keep | uid | byteSize | createTime
//	lastUsed − createTime (signed) | nruns | nruns × (start, len)
//	linkLen | linkTarget bytes
//
// Name and version live in the key, not the value. A small file's value is
// about 23 bytes where fixed-width fields took 47, so a name-table page holds
// about twice the entries. The root page's magic records the format
// (rootMagic).
func encodeEntry(e *Entry) []byte {
	buf := make([]byte, 0, entrySize(e))
	buf = binary.AppendUvarint(buf, uint64(e.Class))
	buf = binary.AppendUvarint(buf, uint64(e.Keep))
	buf = binary.AppendUvarint(buf, e.UID)
	buf = binary.AppendUvarint(buf, e.ByteSize)
	buf = binary.AppendUvarint(buf, uint64(e.CreateTime))
	buf = binary.AppendVarint(buf, int64(e.LastUsed-e.CreateTime))
	buf = binary.AppendUvarint(buf, uint64(len(e.Runs)))
	for _, r := range e.Runs {
		buf = binary.AppendUvarint(buf, uint64(r.Start))
		buf = binary.AppendUvarint(buf, uint64(r.Len))
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.LinkTarget)))
	return append(buf, e.LinkTarget...)
}

// entrySize is len(encodeEntry(e)), counted without encoding.
func entrySize(e *Entry) int {
	n := uvarintLen(uint64(e.Class)) + uvarintLen(uint64(e.Keep)) + uvarintLen(e.UID) +
		uvarintLen(e.ByteSize) + uvarintLen(uint64(e.CreateTime)) +
		varintLen(int64(e.LastUsed-e.CreateTime)) + uvarintLen(uint64(len(e.Runs)))
	for _, r := range e.Runs {
		n += uvarintLen(uint64(r.Start)) + uvarintLen(uint64(r.Len))
	}
	return n + uvarintLen(uint64(len(e.LinkTarget))) + len(e.LinkTarget)
}

// maxScalarWidths is the longest encoding of the byte size, the keep count
// and the last-used delta together: two 64-bit varints and a 16-bit one.
const maxScalarWidths = 2*binary.MaxVarintLen64 + 3

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's encoding of x: its
// zig-zag form's.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// entryFits reports, as btree.ErrTooLarge, an entry the name table would
// refuse. Whatever lengthens a run table checks it while it can still fail
// the one call that asked: on an asynchronous volume a Put refused in the
// applier takes the whole volume read-only. The fields that later updates
// change unchecked — the byte size (SetByteSize, a write past the end), the
// keep count (SetKeep) and the last-used time (Touch, a cached file's open)
// — count at their widest, so no such update can lengthen an entry that
// passed past what a cell holds.
func entryFits(e *Entry) error {
	widest := entrySize(e) - uvarintLen(e.ByteSize) - uvarintLen(uint64(e.Keep)) -
		varintLen(int64(e.LastUsed-e.CreateTime)) + maxScalarWidths
	if !btree.Fits(NTPageSize, len(e.Name)+5, widest) {
		return fmt.Errorf("core: %q!%d with %d runs: %w", e.Name, e.Version, len(e.Runs), btree.ErrTooLarge)
	}
	return nil
}

// entryUID is the uid of an encoded entry, 0 (no file's) if buf is too short
// to hold one.
func entryUID(buf []byte) uint64 {
	d := valueDecoder{buf: buf}
	d.uvarint(0xFF)
	d.uvarint(0xFFFF)
	uid := d.uvarint(^uint64(0))
	if d.bad {
		return 0
	}
	return uid
}

// valueDecoder reads an entry value's varints in order. A value that ends
// early, a varint longer than its shortest form, or one above its field's
// maximum sets bad; the reads after that return 0.
type valueDecoder struct {
	buf []byte
	bad bool
}

func (d *valueDecoder) uvarint(max uint64) uint64 {
	x, n := binary.Uvarint(d.buf)
	if d.bad || n <= 0 || n != uvarintLen(x) || x > max {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

func (d *valueDecoder) varint() int64 {
	x, n := binary.Varint(d.buf)
	if d.bad || n <= 0 || n != varintLen(x) {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

// decodeEntry decodes a name-table value: exactly one encodeEntry output,
// nothing after it.
func decodeEntry(name string, version uint32, buf []byte) (*Entry, error) {
	e := new(Entry)
	if err := decodeEntryInto(e, name, version, buf); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeEntryInto is decodeEntry into *e, which it overwrites whole: e's run
// table keeps its backing array if that has room, so a caller decoding entry
// after entry into one Entry allocates for none of them. On an error *e is
// left partly overwritten.
func decodeEntryInto(e *Entry, name string, version uint32, buf []byte) error {
	d := valueDecoder{buf: buf}
	runs := e.Runs[:0]
	*e = Entry{Name: name, Version: version}
	e.Class = Class(d.uvarint(0xFF))
	e.Keep = uint16(d.uvarint(0xFFFF))
	e.UID = d.uvarint(^uint64(0))
	e.ByteSize = d.uvarint(^uint64(0))
	e.CreateTime = time.Duration(d.uvarint(^uint64(0)))
	e.LastUsed = e.CreateTime + time.Duration(d.varint())
	// Each run takes at least two bytes: a count beyond that is refused
	// before anything is allocated for it.
	n := int(d.uvarint(uint64(len(d.buf) / 2)))
	e.Runs = slices.Grow(runs, n)[:n]
	for i := range e.Runs {
		e.Runs[i] = alloc.Run{Start: uint32(d.uvarint(0xFFFFFFFF)), Len: uint32(d.uvarint(0xFFFFFFFF))}
	}
	ll := d.uvarint(uint64(len(d.buf)))
	if d.bad || ll != uint64(len(d.buf)) {
		return fmt.Errorf("core: corrupt name table value for %q!%d", name, version)
	}
	e.LinkTarget = string(d.buf)
	return nil
}
