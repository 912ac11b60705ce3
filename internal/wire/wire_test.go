package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	cedarfs "repro"
)

// sampleRequests covers every op with representative field values.
func sampleRequests() []Request {
	return []Request{
		{ID: 1, Op: OpOpen, Name: "a/b.txt", Version: 3},
		{ID: 2, Op: OpCreate, Name: "new.txt", Data: []byte("hello")},
		{ID: 3, Op: OpCreate, Name: "empty.txt"},
		{ID: 4, Op: OpRead, Handle: 7, Off: 512, N: 4096},
		{ID: 5, Op: OpWrite, Handle: 7, Off: 1 << 20, Data: bytes.Repeat([]byte{0xAB}, 600)},
		{ID: 6, Op: OpCloseHandle, Handle: 7},
		{ID: 7, Op: OpStat, Name: "a/b.txt", Version: 0},
		{ID: 8, Op: OpList, Name: "a/"},
		{ID: 9, Op: OpRename, Name: "old", Name2: "new"},
		{ID: 10, Op: OpDelete, Name: "gone.txt", Version: 2},
		{ID: 11, Op: OpSetKeep, Name: "kept.txt", Keep: 4},
		{ID: 12, Op: OpForce},
		{ID: 13, Op: OpWaitCommitted, Seq: 99},
		{ID: 14, Op: OpStats},
	}
}

func sampleReplies() []Reply {
	info := cedarfs.FileInfo{
		Name: "a/b.txt", Version: 3, Class: cedarfs.SymLink, Keep: 2,
		ByteSize: 12345, Pages: 25, LinkTarget: "remote!target",
	}
	return []Reply{
		{ID: 1, Op: OpOpen, CommitSeq: 10, Handle: 7, Info: info},
		{ID: 2, Op: OpCreate, CommitSeq: 11, Handle: 8, Info: info},
		{ID: 3, Op: OpRead, CommitSeq: 11, Data: []byte("payload")},
		{ID: 4, Op: OpRead, CommitSeq: 11, Data: []byte{}},
		{ID: 5, Op: OpWrite, CommitSeq: 12, N: 600},
		{ID: 6, Op: OpCloseHandle, CommitSeq: 12},
		{ID: 7, Op: OpStat, CommitSeq: 12, Info: info},
		{ID: 8, Op: OpList, CommitSeq: 12, Infos: []cedarfs.FileInfo{info, {Name: "x"}}},
		{ID: 9, Op: OpList, CommitSeq: 12},
		{ID: 10, Op: OpRename, CommitSeq: 13},
		{ID: 11, Op: OpDelete, CommitSeq: 14},
		{ID: 12, Op: OpSetKeep, CommitSeq: 15},
		{ID: 13, Op: OpForce, CommitSeq: 16, Seq: 16},
		{ID: 14, Op: OpWaitCommitted, CommitSeq: 16},
		{ID: 15, Op: OpStats, CommitSeq: 17, Stats: cedarfs.FSStats{
			CommitSeq: 17, Forces: 3, OpsTotal: 42, IntentDepth: 5,
			IntentLimit: 512, Health: cedarfs.HealthDegraded, Sessions: 9,
		}},
		{ID: 16, Op: OpOpen, Code: uint16(cedarfs.CodeNotFound), Msg: "core: file not found"},
		{ID: 17, Op: OpWrite, Code: uint16(cedarfs.CodeReadOnly), Msg: ""},
	}
}

// normalizeReq zeroes representation-level differences a round trip may
// legitimately introduce (nil vs empty slice).
func normalizeReq(q *Request) {
	if len(q.Data) == 0 {
		q.Data = nil
	}
}

func normalizeRep(p *Reply) {
	if len(p.Data) == 0 {
		p.Data = nil
	}
	if len(p.Infos) == 0 {
		p.Infos = nil
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, q := range sampleRequests() {
		frame := AppendRequest(nil, &q)
		f, err := ReadFramePooled(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("%v: ReadFramePooled: %v", q.Op, err)
		}
		got, err := DecodeRequest(f.B)
		if err != nil {
			t.Fatalf("%v: DecodeRequest: %v", q.Op, err)
		}
		normalizeReq(&q)
		normalizeReq(&got)
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", q.Op, got, q)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, p := range sampleReplies() {
		frame := AppendReply(nil, &p)
		f, err := ReadFramePooled(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("%v: ReadFramePooled: %v", p.Op, err)
		}
		got, err := DecodeReply(f.B)
		if err != nil {
			t.Fatalf("%v: DecodeReply: %v", p.Op, err)
		}
		normalizeRep(&p)
		normalizeRep(&got)
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", p.Op, got, p)
		}
	}
}

// TestDecodeTruncations feeds every strict prefix of every valid message to
// the decoders: none may panic, and all must error (a prefix is never a
// valid message because frames are consumed exactly).
func TestDecodeTruncations(t *testing.T) {
	for _, q := range sampleRequests() {
		frame := AppendRequest(nil, &q)
		body := frame[HeaderLen:]
		for i := 0; i < len(body); i++ {
			if _, err := DecodeRequest(body[:i]); err == nil {
				t.Fatalf("%v: prefix %d/%d decoded without error", q.Op, i, len(body))
			}
		}
	}
	for _, p := range sampleReplies() {
		frame := AppendReply(nil, &p)
		body := frame[HeaderLen:]
		for i := 0; i < len(body); i++ {
			if _, err := DecodeReply(body[:i]); err == nil {
				t.Fatalf("%v: prefix %d/%d decoded without error", p.Op, i, len(p.Infos))
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	q := Request{ID: 1, Op: OpForce}
	body := append(AppendRequest(nil, &q)[HeaderLen:], 0xFF)
	if _, err := DecodeRequest(body); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsBadOp(t *testing.T) {
	for _, op := range []uint8{0, uint8(opMax), 200} {
		body := []byte{0, 0, 0, 1, op}
		if _, err := DecodeRequest(body); err == nil {
			t.Fatalf("op %d accepted", op)
		}
		if _, err := DecodeReply(body); err == nil {
			t.Fatalf("reply op %d accepted", op)
		}
	}
}

func TestReadFrameEnforcesLimit(t *testing.T) {
	q := Request{ID: 1, Op: OpWrite, Handle: 1, Data: make([]byte, 1024)}
	frame := AppendRequest(nil, &q)
	if _, err := ReadFramePooled(bytes.NewReader(frame), 128); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := ReadFramePooled(bytes.NewReader(frame), len(frame)); err != nil {
		t.Fatalf("fitting frame rejected: %v", err)
	}
}

// TestLongStringTruncatedConsistently: a string the u16 length prefix
// cannot describe (a long server error Msg) is truncated consistently with
// the prefix — the frame still decodes cleanly instead of desyncing as
// trailing garbage and tearing the connection down.
func TestLongStringTruncatedConsistently(t *testing.T) {
	long := string(bytes.Repeat([]byte{'x'}, MaxString+1000))
	p := Reply{ID: 7, Op: OpStat, Code: 5, Msg: long}
	body := AppendReply(nil, &p)[HeaderLen:]
	got, err := DecodeReply(body)
	if err != nil {
		t.Fatalf("long-msg frame did not decode: %v", err)
	}
	if got.Msg != long[:MaxString] {
		t.Fatalf("msg truncated inconsistently: got %d bytes", len(got.Msg))
	}
}

// TestListCountBomb verifies the decoder rejects a list reply whose claimed
// entry count cannot fit in the frame, instead of allocating for it.
func TestListCountBomb(t *testing.T) {
	p := Reply{ID: 1, Op: OpList, CommitSeq: 1}
	body := AppendReply(nil, &p)[HeaderLen:]
	// Patch the count field (last 4 bytes) to a huge value.
	for i := 1; i <= 4; i++ {
		body[len(body)-i] = 0xFF
	}
	if _, err := DecodeReply(body); err == nil {
		t.Fatal("count bomb accepted")
	}
}

// TestDecodeListAllocatesSliceOnce is the list decode's allocation gate: an
// N-entry list reply allocates its Infos slice once, at its final length,
// and one name string per entry — not a slice regrown by append.
func TestDecodeListAllocatesSliceOnce(t *testing.T) {
	const n = 100
	infos := make([]cedarfs.FileInfo, n)
	for i := range infos {
		infos[i] = cedarfs.FileInfo{Name: fmt.Sprintf("dir/file-%03d", i), Version: 1, ByteSize: 512}
	}
	frame := AppendReply(nil, &Reply{ID: 1, Op: OpList, CommitSeq: 5, Infos: infos})
	body := frame[HeaderLen:]
	var got Reply
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = DecodeReply(body); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got.Infos, infos) {
		t.Fatal("list reply did not round-trip")
	}
	t.Logf("decoding a %d-entry list: %v allocs", n, allocs)
	if cap(got.Infos) != n {
		t.Errorf("Infos has capacity %d for %d entries: want it sized once", cap(got.Infos), n)
	}
	if allocs > n+1 {
		t.Errorf("decoding a %d-entry list allocates %v times; want %d names and one slice", n, allocs, n)
	}
}
