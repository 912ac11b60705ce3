package client_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/wire"
)

// TestCtxCancelKeepsConnection pins the abandoned-wait contract: a context
// that expires while a request is in flight abandons that one call, and the
// server's late reply is silently absorbed — it must not read as a protocol
// desync that closes the pooled connection under every other request.
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
				reply(&wire.Reply{ID: q.ID, Op: q.Op, CommitSeq: 1})
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

	// The connection must still carry requests.
	if _, err := cl.Stats(context.Background()); err != nil {
		t.Fatalf("connection poisoned by an abandoned wait: %v", err)
	}
	if n := cl.ProtocolErrors(); n != 0 {
		t.Fatalf("late reply counted as %d protocol errors", n)
	}
}
