package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/alloc"
	"repro/internal/disk"
)

func sampleEntry() *Entry {
	return &Entry{
		Name:       "subdir/compiler.bcd",
		Version:    7,
		Class:      Cached,
		Keep:       3,
		UID:        0x123456789A,
		ByteSize:   123456,
		CreateTime: 42 * time.Second,
		LastUsed:   43 * time.Second,
		Runs:       []alloc.Run{{Start: 1000, Len: 10}, {Start: 5000, Len: 233}},
		LinkTarget: "",
	}
}

func TestEntryEncodeDecodeRoundTrip(t *testing.T) {
	e := sampleEntry()
	got, err := decodeEntry(e.Name, e.Version, encodeEntry(e))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", e, got)
	}
}

// TestEntryDecodeRejectsTruncation: a value is exactly one encoding. Every
// proper prefix of one is refused, and so is one with bytes after it.
func TestEntryDecodeRejectsTruncation(t *testing.T) {
	for _, e := range append(sampleEntries(), sampleEntry(), extremeEntry()) {
		buf := encodeEntry(e)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := decodeEntry(e.Name, e.Version, buf[:cut]); err == nil {
				t.Fatalf("%s: the first %d of %d bytes decoded", e.Name, cut, len(buf))
			}
		}
		if _, err := decodeEntry(e.Name, e.Version, append(buf, 0)); err == nil {
			t.Fatalf("%s: a value with a trailing byte decoded", e.Name)
		}
	}
}

// extremeEntry is an entry at the edges of every field: the largest uid and
// size, a last-used time before the creation time, 64 runs of the largest
// start and length, and a long link target.
func extremeEntry() *Entry {
	e := &Entry{
		Name: "edge/extreme", Version: ^uint32(0), Class: SymLink, Keep: ^uint16(0),
		UID: ^uint64(0), ByteSize: ^uint64(0),
		CreateTime: time.Duration(1<<63 - 1), LastUsed: -time.Duration(1 << 62),
		LinkTarget: strings.Repeat("[server]<far/away>", 14),
	}
	for i := 0; i < 64; i++ {
		e.Runs = append(e.Runs, alloc.Run{Start: ^uint32(0) - uint32(i), Len: ^uint32(0)})
	}
	return e
}

// TestEntryExtremesRoundTrip: the edges of every field survive the codec.
func TestEntryExtremesRoundTrip(t *testing.T) {
	for _, e := range []*Entry{extremeEntry(), {Name: "edge/zero", LastUsed: -1}} {
		got, err := decodeEntry(e.Name, e.Version, encodeEntry(e))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("%s: round trip mismatch:\n%+v\n%+v", e.Name, e, got)
		}
	}
}

// TestEntrySizeIsEncodedLength: entrySize, which entryFits asks before an
// update, is the encoding's length, counted without allocating.
func TestEntrySizeIsEncodedLength(t *testing.T) {
	for _, e := range append(sampleEntries(), sampleEntry(), extremeEntry(), &Entry{Name: "edge/zero"}) {
		if got, want := entrySize(e), len(encodeEntry(e)); got != want {
			t.Errorf("%s: entrySize %d, encoding %d bytes", e.Name, got, want)
		}
	}
	e := extremeEntry()
	if n := testing.AllocsPerRun(100, func() { _ = entrySize(e) }); n != 0 {
		t.Errorf("entrySize allocates %.0f times", n)
	}
}

func TestEntryKeyOrdering(t *testing.T) {
	// Versions of one name sort adjacently and ascending; different names
	// sort by name.
	k1 := entryKey("aaa", 2)
	k2 := entryKey("aaa", 10)
	k3 := entryKey("aab", 1)
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatal("key ordering broken")
	}
	// A name that is a prefix of another must not interleave versions.
	ka := entryKey("doc", 99999)
	kb := entryKey("doc2", 1)
	if bytes.Compare(ka, kb) >= 0 {
		t.Fatal("prefix name ordering broken")
	}
}

func TestSplitKeyInverse(t *testing.T) {
	f := func(nameBytes []byte, ver uint32) bool {
		name := ""
		for _, b := range nameBytes {
			if b == 0 {
				b = 1
			}
			name += string(rune(b%94 + 33))
		}
		if name == "" {
			name = "x"
		}
		if len(name) > 200 {
			name = name[:200]
		}
		n, v, ok := splitKey(entryKey(name, ver))
		return ok && n == name && v == ver
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDataAddrAndContiguity(t *testing.T) {
	e := &Entry{
		Name: "m", Version: 1,
		Runs: []alloc.Run{{Start: 100, Len: 4}, {Start: 500, Len: 3}},
	}
	// Leader at 100; data pages: 101,102,103 then 500,501,502.
	if e.Pages() != 6 {
		t.Fatalf("Pages = %d", e.Pages())
	}
	wantAddrs := []int{101, 102, 103, 500, 501, 502}
	for p, want := range wantAddrs {
		got, _, err := e.ContiguousFrom(p, 1)
		if err != nil || got != want {
			t.Fatalf("ContiguousFrom(%d,1) = %d, %v; want %d", p, got, err, want)
		}
	}
	if _, _, err := e.ContiguousFrom(6, 1); err == nil {
		t.Fatal("ContiguousFrom past end accepted")
	}
	addr, n, err := e.ContiguousFrom(1, 10)
	if err != nil || addr != 102 || n != 2 {
		t.Fatalf("ContiguousFrom(1,10) = %d,%d,%v", addr, n, err)
	}
	addr, n, err = e.ContiguousFrom(3, 2)
	if err != nil || addr != 500 || n != 2 {
		t.Fatalf("ContiguousFrom(3,2) = %d,%d,%v", addr, n, err)
	}
}

// Property: encode/decode round-trips for arbitrary entries.
func TestQuickEntryRoundTrip(t *testing.T) {
	f := func(name string, ver uint32, class uint8, keep uint16, uid, size uint64, runs []struct{ S, L uint32 }, link string) bool {
		if name == "" || len(name) > 200 || bytes.ContainsRune([]byte(name), 0) {
			return true // skip invalid names
		}
		if len(link) > 255 || len(runs) > 16 {
			return true
		}
		e := &Entry{
			Name: name, Version: ver, Class: Class(class % 3), Keep: keep,
			UID: uid, ByteSize: size, CreateTime: time.Second, LastUsed: 2 * time.Second,
			LinkTarget: link,
		}
		for _, r := range runs {
			e.Runs = append(e.Runs, alloc.Run{Start: r.S, Len: r.L})
		}
		got, err := decodeEntry(e.Name, e.Version, encodeEntry(e))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderRoundTripAndVerify(t *testing.T) {
	e := sampleEntry()
	e.Runs = []alloc.Run{{Start: 777, Len: 20}}
	buf := encodeLeader(e)
	if len(buf) != disk.SectorSize {
		t.Fatalf("leader size %d", len(buf))
	}
	uid, ok := leaderUID(buf)
	if !ok || uid != e.UID {
		t.Fatalf("leaderUID = %d, %v", uid, ok)
	}
	if err := verifyLeader(buf, e); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong uid.
	other := *e
	other.UID++
	if err := verifyLeader(buf, &other); err == nil {
		t.Fatal("verify accepted wrong uid")
	}
	// Changed run table.
	other = *e
	other.Runs = []alloc.Run{{Start: 778, Len: 20}}
	if err := verifyLeader(buf, &other); err == nil {
		t.Fatal("verify accepted changed run table")
	}
	// Smashed page.
	buf[5] ^= 0xFF
	if _, ok := leaderUID(buf); ok {
		t.Fatal("leaderUID accepted smashed page")
	}
}

func TestLeaderManyRunsPreamble(t *testing.T) {
	// More runs than the preamble holds: the checksum still covers all.
	e := sampleEntry()
	e.Runs = nil
	for i := 0; i < leaderPreamble+5; i++ {
		e.Runs = append(e.Runs, alloc.Run{Start: uint32(1000 + 10*i), Len: 5})
	}
	buf := encodeLeader(e)
	if err := verifyLeader(buf, e); err != nil {
		t.Fatalf("verify with long run table: %v", err)
	}
	e.Runs[leaderPreamble+2].Len++ // change a run beyond the preamble
	if err := verifyLeader(buf, e); err == nil {
		t.Fatal("run-table checksum missed a change beyond the preamble")
	}
}

func TestValidateName(t *testing.T) {
	for _, bad := range []string{"", "a\x00b", string(make([]byte, 300))} {
		if err := ValidateName(bad); err == nil {
			t.Fatalf("ValidateName(%q) accepted", bad)
		}
	}
	for _, good := range []string{"a", "dir/sub/file.ext!weird", "ALLCAPS"} {
		if err := ValidateName(good); err != nil {
			t.Fatalf("ValidateName(%q) rejected: %v", good, err)
		}
	}
}
