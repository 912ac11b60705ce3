package client_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	cedarfs "repro"
	"repro/client"
	"repro/internal/allocgate"
	"repro/internal/wire"
)

// TestCtxCancelKeepsConnection pins the abandoned-wait contract: a context
// that expires while a request is in flight abandons that one call, and the
// server's late reply is silently absorbed — it must not read as a protocol
// desync that closes the pooled connection under every other request, nor
// reach the next request on the connection as its reply.
//
// The server side is faked over a net.Pipe so the reply can be held until
// after the client has given up.
func TestCtxCancelKeepsConnection(t *testing.T) {
	cs, ss := net.Pipe()
	release := make(chan struct{})
	waitReplied := make(chan struct{})
	var wmu sync.Mutex
	reply := func(p *wire.Reply) {
		wmu.Lock()
		defer wmu.Unlock()
		wire.WriteFrame(ss, wire.AppendReply(nil, p))
	}
	go func() {
		for {
			f, err := wire.ReadFramePooled(ss, 0)
			if err != nil {
				return
			}
			q, err := wire.DecodeRequest(f.B)
			if err != nil {
				t.Error(err)
				return
			}
			switch q.Op {
			case wire.OpWaitCommitted:
				go func(id uint32) {
					<-release
					reply(&wire.Reply{ID: id, Op: wire.OpWaitCommitted, CommitSeq: 42})
					close(waitReplied)
				}(q.ID)
			default:
				// Answered a moment late, so that a waiter still holding
				// the abandoned wait's reply would hand that over first.
				time.Sleep(50 * time.Millisecond)
				reply(&wire.Reply{ID: q.ID, Op: q.Op, CommitSeq: 1, Stats: cedarfs.FSStats{OpsTotal: 99}})
			}
		}
	}()

	cl, err := client.Dial("fake", client.Options{
		Conns:  1,
		Dialer: func(string) (net.Conn, error) { return cs, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := cl.WaitCommitted(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned wait returned %v, want deadline exceeded", err)
	}

	// Let the reply nobody is waiting for land, and give the read loop a
	// moment to process it.
	close(release)
	<-waitReplied
	time.Sleep(100 * time.Millisecond)

	// The connection must still carry requests, each to its own reply.
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatalf("connection poisoned by an abandoned wait: %v", err)
	}
	if st.OpsTotal != 99 {
		t.Fatalf("Stats returned %+v: the abandoned wait's late reply reached it", st)
	}
	if n := cl.ProtocolErrors(); n != 0 {
		t.Fatalf("late reply counted as %d protocol errors", n)
	}
}

// TestStatRoundTripReusesWaiter is the client's allocation gate: a Stat
// round trip against a fake server that answers from a fixed frame, and so
// allocates nothing itself, allocates the reply's name and nothing else.
// The request is framed into a recycled frame and the reply waited for on
// a recycled waiter — neither a channel nor a reply object per request.
func TestStatRoundTripReusesWaiter(t *testing.T) {
	if allocgate.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames")
	}
	cs, ss := net.Pipe()
	rep := wire.AppendReply(nil, &wire.Reply{Op: wire.OpStat, CommitSeq: 7,
		Info: cedarfs.FileInfo{Name: "gate/stat", Version: 3, ByteSize: 100, Pages: 1}})
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := io.ReadFull(ss, buf[:wire.HeaderLen]); err != nil {
				return
			}
			n := int(binary.BigEndian.Uint32(buf))
			if _, err := io.ReadFull(ss, buf[:n]); err != nil {
				return
			}
			copy(rep[wire.HeaderLen:], buf[:4]) // the request's id
			if _, err := ss.Write(rep); err != nil {
				return
			}
		}
	}()
	cl, err := client.Dial("fake", client.Options{
		Conns:  1,
		Dialer: func(string) (net.Conn, error) { return cs, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	stat := func() {
		if fi, err := cl.Stat(ctx, "gate/stat", 0); err != nil || fi.Version != 3 {
			t.Fatalf("Stat: %+v, %v", fi, err)
		}
	}
	for i := 0; i < 20; i++ {
		stat() // warm the frame pools
	}
	allocs, bytes := testing.AllocsPerRun(200, stat), allocgate.BytesPerRun(200, stat)
	t.Logf("stat round trip: %v allocs, %d B", allocs, bytes)
	// A waiter is a channel and a reply, and a reply holds a wire.Reply.
	if max := unsafe.Sizeof(wire.Reply{}); bytes >= uint64(max) {
		t.Errorf("a Stat round trip allocates %d B on the client; a wire.Reply alone is %d", bytes, max)
	}
	if allocs > 1 {
		t.Errorf("a Stat round trip allocates %v times on the client; want only the reply's name", allocs)
	}
}
