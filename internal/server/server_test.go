package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	cedarfs "repro"
	"repro/client"
	"repro/internal/disk"
	"repro/internal/fstest"
	"repro/internal/server"
	"repro/internal/sim"
)

// startServer mounts a fresh volume, serves it on a loopback TCP listener,
// and returns the address. Everything is torn down via t.Cleanup.
func startServer(t *testing.T, cfg cedarfs.Config, scfg server.Config) (string, *server.Server) {
	t.Helper()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	vol, err := cedarfs.Format(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := cedarfs.NewLocalFS(vol)
	srv := server.New(fs, scfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Close()
		fs.Close()
		if vs, err := vol.Verify(); err != nil || len(vs.Problems) != 0 {
			t.Errorf("verify: %v, %v", vs.Problems, err)
		}
		if err := vol.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return l.Addr().String(), srv
}

// TestRemoteConformance runs the shared FS conformance suite against the
// remote client over a real loopback socket — the same suite the local
// adapter passes (TestLocalFSConformance in the root package), which is the
// tentpole contract: one interface, two transports, identical semantics.
func TestRemoteConformance(t *testing.T) {
	fstest.Run(t, func(t *testing.T) cedarfs.FS {
		addr, _ := startServer(t, cedarfs.Config{}, server.Config{})
		cl, err := client.Dial(addr, client.Options{Conns: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cl.Close()
			if n := cl.ProtocolErrors(); n != 0 {
				t.Errorf("client saw %d protocol errors", n)
			}
		})
		return cl
	})
}

// TestRemoteConformanceAsync repeats the suite against a volume running the
// asynchronous metadata pipeline, where acked commit sequences lag the
// apply and WaitCommitted does real waiting.
func TestRemoteConformanceAsync(t *testing.T) {
	fstest.Run(t, func(t *testing.T) cedarfs.FS {
		addr, _ := startServer(t, cedarfs.Config{AsyncApply: true, AdaptiveCommit: true}, server.Config{})
		cl, err := client.Dial(addr, client.Options{Conns: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	})
}

// TestMaxSessions: connections over the cap are closed at accept.
func TestMaxSessions(t *testing.T) {
	addr, srv := startServer(t, cedarfs.Config{}, server.Config{MaxSessions: 1})
	c1, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Stats(t.Context()); err != nil {
		t.Fatal(err)
	}
	// The second session is denied: its connection dies immediately, which
	// the client observes as a failed call.
	c2, err := client.Dial(addr, client.Options{Conns: 1})
	if err == nil {
		defer c2.Close()
		if _, err := c2.Stats(t.Context()); err == nil {
			t.Fatal("second session over MaxSessions=1 served a request")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsDenied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("denied session not counted: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProtocolErrorDropsSession: a malformed frame kills the session (and
// is counted) without disturbing other sessions.
func TestProtocolErrorDropsSession(t *testing.T) {
	addr, srv := startServer(t, cedarfs.Config{}, server.Config{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A framed body too short to hold a request header.
	frame := make([]byte, 4+2)
	binary.BigEndian.PutUint32(frame, 2)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server must close the bad session.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a session alive after an undecodable frame")
	}
	if n := srv.Stats().ProtocolErrors; n == 0 {
		t.Fatalf("protocol error not counted: %+v", srv.Stats())
	}
	// The well-formed session still works.
	if _, err := cl.Stats(t.Context()); err != nil {
		t.Fatalf("good session disturbed: %v", err)
	}
}

// blockingFS is a stub FS whose WaitCommitted blocks until its context is
// cancelled — the degenerate case of a durability wait that never lands.
// Only the methods the test exercises do anything.
type blockingFS struct{}

func (blockingFS) Open(context.Context, string, uint32) (cedarfs.Handle, error) {
	return nil, cedarfs.ErrNotFound
}
func (blockingFS) Create(context.Context, string, []byte) (cedarfs.Handle, error) {
	return nil, cedarfs.ErrReadOnly
}
func (blockingFS) Stat(context.Context, string, uint32) (cedarfs.FileInfo, error) {
	return cedarfs.FileInfo{}, cedarfs.ErrNotFound
}
func (blockingFS) List(context.Context, string) ([]cedarfs.FileInfo, error) { return nil, nil }
func (blockingFS) Rename(context.Context, string, string) error             { return cedarfs.ErrReadOnly }
func (blockingFS) Delete(context.Context, string, uint32) error             { return cedarfs.ErrReadOnly }
func (blockingFS) SetKeep(context.Context, string, uint16) error            { return cedarfs.ErrReadOnly }
func (blockingFS) Force(context.Context) (uint64, error)                    { return 0, nil }
func (blockingFS) WaitCommitted(ctx context.Context, seq uint64) error {
	<-ctx.Done()
	return ctx.Err()
}
func (blockingFS) Stats(context.Context) (cedarfs.FSStats, error) {
	return cedarfs.FSStats{CommitSeq: 1 << 40}, nil
}
func (blockingFS) Close() error { return nil }

// TestServerCloseUnblocksParkedWait: a parked durability wait whose commit
// never lands must not wedge Server.Close — the session context is
// cancelled when the connection dies and the parked goroutine is reclaimed.
func TestServerCloseUnblocksParkedWait(t *testing.T) {
	srv := server.New(blockingFS{}, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	cl, err := client.Dial(l.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Park a wait on the server; the client gives up, the server does not.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := cl.WaitCommitted(ctx, 1); err == nil {
		t.Fatal("wait against blockingFS returned")
	}

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close wedged on a parked WaitCommitted")
	}
}

// TestWaitCommittedFutureSeqRejected: a sequence the server never handed
// out can never commit; the server must answer ErrBadRequest instead of
// parking the wait forever.
func TestWaitCommittedFutureSeqRejected(t *testing.T) {
	addr, _ := startServer(t, cedarfs.Config{}, server.Config{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := t.Context()
	if err := cl.WaitCommitted(ctx, 1<<62); !errors.Is(err, cedarfs.ErrBadRequest) {
		t.Fatalf("future-seq wait returned %v, want ErrBadRequest", err)
	}
	// Legitimately issued sequences still wait fine.
	h, err := cl.Create(ctx, "wait/f.txt", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	seq, err := cl.Force(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCommitted(ctx, seq); err != nil {
		t.Fatalf("wait on issued seq %d: %v", seq, err)
	}
}

// TestLargeIOChunkedUnderFrameLimit: writes and reads bigger than the frame
// limit are chunked client-side, and an oversized create fails with
// ErrBadRequest — in no case does a single call cost the whole session.
func TestLargeIOChunkedUnderFrameLimit(t *testing.T) {
	const maxFrame = 4096
	addr, _ := startServer(t, cedarfs.Config{}, server.Config{MaxFrame: maxFrame})
	cl, err := client.Dial(addr, client.Options{Conns: 1, MaxFrame: maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := t.Context()

	h, err := cl.Create(ctx, "big/stream.bin", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	data := make([]byte, 5*maxFrame+123)
	for i := range data {
		data[i] = byte(i * 31)
	}
	n, seq, err := h.WriteAt(ctx, data, 0)
	if err != nil || n != len(data) {
		t.Fatalf("chunked write: %d, %v", n, err)
	}
	if err := cl.WaitCommitted(ctx, seq); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := h.ReadAt(ctx, got, 0); err != nil || n != len(data) {
		t.Fatalf("chunked read: %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunked round-trip corrupted data")
	}
	if size := h.Info().ByteSize; size != uint64(len(data)) {
		t.Fatalf("Info().ByteSize = %d, want %d", size, len(data))
	}

	// An oversized create cannot be chunked: it fails alone, client-side.
	if _, err := cl.Create(ctx, "big/too-much", make([]byte, 2*maxFrame)); !errors.Is(err, cedarfs.ErrBadRequest) {
		t.Fatalf("oversized create returned %v, want ErrBadRequest", err)
	}
	// ... and the session survived all of it.
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatalf("session lost: %v", err)
	}
	if n := cl.ProtocolErrors(); n != 0 {
		t.Fatalf("%d protocol errors", n)
	}
}

// TestServerStatsCounters: request/error/handle accounting.
func TestServerStatsCounters(t *testing.T) {
	addr, srv := startServer(t, cedarfs.Config{}, server.Config{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := t.Context()
	h, err := cl.Create(ctx, "stats/probe", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.OpenHandles != 1 || st.Sessions != 1 {
		t.Fatalf("after create: %+v", st)
	}
	if _, err := cl.Open(ctx, "stats/missing", 0); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.OpenHandles != 0 || st.Requests < 3 || st.Errors == 0 {
		t.Fatalf("final stats: %+v", st)
	}
}
