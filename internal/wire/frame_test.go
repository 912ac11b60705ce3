package wire

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/allocgate"
)

// TestDecodeAliasesFrame: a decoded message's Data is a view of the frame
// body — no payload-sized allocation on either decoder — and is capped, so
// an append to it cannot run into the bytes behind it.
func TestDecodeAliasesFrame(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 32<<10)
	req := AppendRequest(nil, &Request{ID: 1, Op: OpWrite, Handle: 3, Data: data})[HeaderLen:]
	rep := AppendReply(nil, &Reply{ID: 1, Op: OpRead, CommitSeq: 9, Data: data})[HeaderLen:]
	q, err := DecodeRequest(req)
	if err != nil || !bytes.Equal(q.Data, data) {
		t.Fatalf("DecodeRequest: %v", err)
	}
	p, err := DecodeReply(rep)
	if err != nil || !bytes.Equal(p.Data, data) {
		t.Fatalf("DecodeReply: %v", err)
	}
	if &q.Data[0] != &req[len(req)-len(data)] || &p.Data[0] != &rep[len(rep)-len(data)] {
		t.Fatal("decoded Data is a copy, want a view of the frame")
	}
	if cap(q.Data) != len(q.Data) || cap(p.Data) != len(p.Data) {
		t.Fatal("decoded Data is not capped at its length")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(req); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeReply(rep); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding a 32 KB write and a 32 KB read reply: %v allocs, want 0", n)
	}
}

// TestReadReplyInPlace: a read reply built around its payload is, byte for
// byte, the frame AppendReply makes of the same reply — full, short and
// empty reads, at the start of a buffer and behind another frame.
func TestReadReplyInPlace(t *testing.T) {
	data := bytes.Repeat([]byte{0xC3}, 5000)
	for _, got := range []int{5000, 1234, 0} {
		for _, lead := range [][]byte{nil, AppendReply(nil, &Reply{ID: 1, Op: OpForce, Seq: 4})} {
			want := AppendReply(bytes.Clone(lead), &Reply{ID: 77, Op: OpRead, CommitSeq: 1 << 40, Data: data[:got]})
			frame, payload := AppendReadReply(bytes.Clone(lead), 77, len(data))
			if len(payload) != len(data) {
				t.Fatalf("payload region of %d bytes, want %d", len(payload), len(data))
			}
			copy(payload, data[:got])
			frame = FinishReadReply(frame, 1<<40, len(data), got)
			if !bytes.Equal(frame, want) {
				t.Fatalf("got=%d lead=%d: in-place frame differs from AppendReply's", got, len(lead))
			}
			if len(frame)-len(lead) != ReadReplyLen(got) {
				t.Fatalf("ReadReplyLen(%d) = %d, frame is %d", got, ReadReplyLen(got), len(frame)-len(lead))
			}
		}
	}
}

// TestFramePool: frames come back from the pool by class, survive a regrow,
// and refuse a second release.
func TestFramePool(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 32<<10 + 23, 1 << 20, 1<<20 + 1} {
		f := NewFrame(n)
		if len(f.B) != 0 || cap(f.B) < n {
			t.Fatalf("NewFrame(%d): len %d cap %d", n, len(f.B), cap(f.B))
		}
		f.B = append(f.B, make([]byte, n+700)...) // outgrow the class
		f.Release()
	}
	f := NewFrame(100)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	f.Release()
}

// TestReadFramePooledSteadyState: reading frames into recycled buffers
// allocates nothing, whatever their size.
func TestReadFramePooledSteadyState(t *testing.T) {
	if allocgate.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames")
	}
	var stream []byte
	stream = AppendRequest(stream, &Request{ID: 1, Op: OpStat, Name: "dir/file"})
	stream = AppendRequest(stream, &Request{ID: 2, Op: OpWrite, Handle: 1, Data: make([]byte, 32<<10)})
	src := bytes.NewReader(stream)
	r := bufio.NewReader(src)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		r.Reset(src)
		for i := 0; i < 2; i++ {
			f, err := ReadFramePooled(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeRequest(f.B); err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}); n > 1 { // the Stat request's name
		t.Errorf("reading and decoding two pooled frames: %v allocs, want <= 1", n)
	}
}

var sinkFrame []byte

// BenchmarkCodecRead32K is one 32 KB read crossing the wire: request encode
// and decode, reply built around its payload, reply decode.
func BenchmarkCodecRead32K(b *testing.B) {
	payload := make([]byte, 32<<10)
	var req, rep []byte
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req = AppendRequest(req[:0], &Request{ID: uint32(i), Op: OpRead, Handle: 1, Off: 4096, N: uint32(len(payload))})
		q, err := DecodeRequest(req[HeaderLen:])
		if err != nil {
			b.Fatal(err)
		}
		frame, region := AppendReadReply(rep[:0], q.ID, int(q.N))
		copy(region, payload) // stands in for ReadAt
		rep = FinishReadReply(frame, 1, int(q.N), len(payload))
		p, err := DecodeReply(rep[HeaderLen:])
		if err != nil {
			b.Fatal(err)
		}
		sinkFrame = p.Data
	}
}

// BenchmarkCodecStat is one Stat crossing the wire.
func BenchmarkCodecStat(b *testing.B) {
	var req, rep []byte
	reply := sampleReplies()[6]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req = AppendRequest(req[:0], &Request{ID: uint32(i), Op: OpStat, Name: "dir0137/file-21"})
		if _, err := DecodeRequest(req[HeaderLen:]); err != nil {
			b.Fatal(err)
		}
		rep = AppendReply(rep[:0], &reply)
		if _, err := DecodeReply(rep[HeaderLen:]); err != nil {
			b.Fatal(err)
		}
	}
}
