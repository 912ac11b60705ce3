package core

import (
	"bytes"
	"testing"

	"repro/internal/alloc"
)

// The decoders of what the disk hands back — a name-table value, a leader
// page — are total: any byte string decodes or is refused, never a panic.
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
// it decodes begins with the canonical encoding of what it decoded.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range sampleEntries() {
		f.Add(encodeEntry(e))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 37))
	f.Fuzz(func(t *testing.T, val []byte) {
		e, err := decodeEntry("fuzz/name", 5, val)
		if err != nil {
			if e != nil {
				t.Fatalf("decodeEntry returned an entry with its error %v", err)
			}
			return
		}
		if enc := encodeEntry(e); !bytes.HasPrefix(val, enc) {
			t.Fatalf("decoded %+v re-encodes to %x, not a prefix of %x", e, enc, val)
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
