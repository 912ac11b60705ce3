package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	cedarfs "repro"
	"repro/client"
	"repro/internal/allocgate"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wire"
)

// patternFS serves files whose bytes are a function of (name, offset), so
// every read request has its own expected payload and a reply that reached
// the wrong caller, or was overwritten on the way, cannot go unnoticed.
// Reads of a file named "slow/…" hold their reply back for slowDelay.
type patternFS struct{ stubFS }

const (
	patternSize = 1 << 20
	slowDelay   = 3 * time.Millisecond
)

// stubFS answers every call at once with a fixed result.
type stubFS struct{}

func (stubFS) Open(context.Context, string, uint32) (cedarfs.Handle, error) {
	return nil, cedarfs.ErrNotFound
}
func (stubFS) Create(context.Context, string, []byte) (cedarfs.Handle, error) {
	return nil, cedarfs.ErrReadOnly
}
func (stubFS) Stat(_ context.Context, name string, _ uint32) (cedarfs.FileInfo, error) {
	return cedarfs.FileInfo{Name: name, Version: 1}, nil
}
func (stubFS) List(context.Context, string) ([]cedarfs.FileInfo, error) { return nil, nil }
func (stubFS) Rename(context.Context, string, string) error             { return nil }
func (stubFS) Delete(context.Context, string, uint32) error             { return nil }
func (stubFS) SetKeep(context.Context, string, uint16) error            { return nil }
func (stubFS) Force(context.Context) (uint64, error)                    { return 0, nil }
func (stubFS) WaitCommitted(context.Context, uint64) error              { return nil }
func (stubFS) Stats(context.Context) (cedarfs.FSStats, error)           { return cedarfs.FSStats{}, nil }
func (stubFS) Close() error                                             { return nil }

func (patternFS) Open(_ context.Context, name string, _ uint32) (cedarfs.Handle, error) {
	return &patternHandle{name: name, seed: seedOf(name), slow: strings.HasPrefix(name, "slow/")}, nil
}

// seedOf is the pattern seed of the file called name.
func seedOf(name string) (seed uint64) {
	for _, c := range []byte(name) {
		seed = seed*131 + uint64(c)
	}
	return seed
}

type patternHandle struct {
	name string
	seed uint64
	slow bool
}

// patternAt is byte i of the file seeded with seed.
func patternAt(seed uint64, i int64) byte {
	x := (seed + uint64(i)/8) * 0x9E3779B97F4A7C15
	return byte(x >> (8 * (uint64(i) % 8)))
}

func (h *patternHandle) Info() cedarfs.FileInfo {
	return cedarfs.FileInfo{Name: h.name, Version: 1, ByteSize: patternSize}
}
func (h *patternHandle) ReadAt(_ context.Context, p []byte, off int64) (int, error) {
	if h.slow {
		time.Sleep(slowDelay)
	}
	for i := range p {
		p[i] = patternAt(h.seed, off+int64(i))
	}
	return len(p), nil
}
func (h *patternHandle) WriteAt(context.Context, []byte, int64) (int, uint64, error) {
	return 0, 0, cedarfs.ErrReadOnly
}
func (h *patternHandle) Close() error { return nil }

// servePipe serves fs to a client whose connections are net.Pipes.
func servePipe(tb testing.TB, fs cedarfs.FS, conns int) *client.Client {
	tb.Helper()
	srv := server.New(fs, server.Config{})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	cl, err := client.Dial("pipe", client.Options{Conns: conns, Dialer: func(string) (net.Conn, error) {
		a, b := net.Pipe()
		select {
		case ln.conns <- b:
			return a, nil
		case <-ln.done:
			return nil, net.ErrClosed
		}
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestPipelinedReadsKeepTheirPayloads is the recycled-frame hammer: 2
// connections × 8 requests in flight, every request with its own expected
// bytes, while a ninth caller per connection keeps abandoning slow reads —
// whose late replies the client must drop, frame and all, without releasing
// a frame some other reply is still being read from. Run under -race.
func TestPipelinedReadsKeepTheirPayloads(t *testing.T) {
	ctx := context.Background()
	const conns, inFlight, rounds = 2, 8, 150
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		// One single-connection client per connection, so that the fast and
		// the abandoned reads provably share it. The frame pools are the
		// process's, shared by all of them.
		cl := servePipe(t, patternFS{}, 1)
		defer func() {
			if n := cl.ProtocolErrors(); n != 0 {
				t.Errorf("%d protocol errors", n)
			}
		}()
		name := fmt.Sprintf("fast/%d", c)
		fast, err := cl.Open(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := cl.Open(ctx, fmt.Sprintf("slow/%d", c), 0)
		if err != nil {
			t.Fatal(err)
		}
		seed := seedOf(name)
		for g := 0; g < inFlight; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 40<<10)
				for r := 0; r < rounds; r++ {
					n := 1 + (g*7919+r*104729)%len(buf)
					off := int64((g*31337 + r*8191) % (patternSize - len(buf)))
					got, err := fast.ReadAt(ctx, buf[:n], off)
					if err != nil || got != n {
						t.Errorf("read %d at %d: %d, %v", n, off, got, err)
						return
					}
					for i := 0; i < n; i++ {
						if buf[i] != patternAt(seed, off+int64(i)) {
							t.Errorf("read %d at %d: byte %d is another request's", n, off, i)
							return
						}
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8<<10)
			abandoned := 0
			for r := 0; r < rounds/5; r++ {
				cctx, cancel := context.WithTimeout(ctx, slowDelay/10)
				_, err := slow.ReadAt(cctx, buf, int64(r)*512)
				cancel()
				// On a busy machine the reply can be there by the time
				// this goroutine looks: then the read simply succeeded.
				if errors.Is(err, context.DeadlineExceeded) {
					abandoned++
				} else if err != nil {
					t.Errorf("abandoned read returned %v", err)
					return
				}
			}
			if abandoned == 0 {
				t.Error("no read was abandoned: the late-reply path went untested")
			}
		}()
	}
	wg.Wait()
}

// poisonFS scribbles over the caller's buffer the moment a Create or a
// WriteAt returns — which is what the server's recycled request frame does
// to it one request later. An FS that kept the slice, not a copy, now holds
// the scribble.
type poisonFS struct{ cedarfs.FS }

func (p poisonFS) Create(ctx context.Context, name string, data []byte) (cedarfs.Handle, error) {
	h, err := p.FS.Create(ctx, name, data)
	poison(data)
	if err != nil {
		return nil, err
	}
	return poisonHandle{h}, nil
}

type poisonHandle struct{ cedarfs.Handle }

func (h poisonHandle) WriteAt(ctx context.Context, p []byte, off int64) (int, uint64, error) {
	n, seq, err := h.Handle.WriteAt(ctx, p, off)
	poison(p)
	return n, seq, err
}

func poison(p []byte) {
	for i := range p {
		p[i] = 0xDB
	}
}

// TestRequestBodiesAreNotRetained: creates and streamed writes through the
// real server and an asynchronous volume (whose create writes the data on
// the caller's side of the queue), every payload poisoned as soon as its
// call returns and its frame recycled under the next request — and every
// file must read back intact, from the cache and from the platter.
func TestRequestBodiesAreNotRetained(t *testing.T) {
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	vol, err := cedarfs.Format(d, cedarfs.Config{AsyncApply: true, AdaptiveCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Shutdown()
	cl := servePipe(t, poisonFS{cedarfs.NewLocalFS(vol)}, 2)
	ctx := context.Background()
	content := func(i, n int) []byte {
		b := make([]byte, n)
		for j := range b {
			b[j] = patternAt(uint64(i)*977, int64(j))
		}
		return b
	}
	const files = 48
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < files; i += 4 {
				name := fmt.Sprintf("body/%02d", i)
				if i%2 == 0 {
					h, err := cl.Create(ctx, name, content(i, 700+i*331))
					if err != nil {
						t.Errorf("create %s: %v", name, err)
						return
					}
					h.Close()
					continue
				}
				h, err := cl.Create(ctx, name, nil)
				if err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				data := content(i, 3000+i*997)
				for off := 0; off < len(data); off += 4096 {
					if _, _, err := h.WriteAt(ctx, data[off:min(off+4096, len(data))], int64(off)); err != nil {
						t.Errorf("write %s at %d: %v", name, off, err)
						return
					}
				}
				h.Close()
			}
		}(w)
	}
	wg.Wait()
	seq, err := cl.Force(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCommitted(ctx, seq); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("body/%02d", i)
			want := content(i, 700+i*331)
			if i%2 == 1 {
				want = content(i, 3000+i*997)
			}
			h, err := cl.Open(ctx, name, 0)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			got := make([]byte, len(want)+10)
			n, _ := h.ReadAt(ctx, got, 0)
			h.Close()
			if n != len(want) || !bytes.Equal(got[:n], want) {
				t.Fatalf("pass %d: %s read back %d bytes, not the %d written: something kept the request's buffer", pass, name, n, len(want))
			}
		}
		if err := vol.DropCaches(); err != nil { // second pass: from the platter
			t.Fatal(err)
		}
	}
}

// TestReadRoundTripAllocs is the transport's allocation gate: a read's round
// trip — client, both codecs, server, a pipe — allocates a small fixed
// number of small objects, the same for 1 KB as for 64 KB. The payload is
// produced in the reply frame, sent from it, received into a recycled frame
// and copied once, into the caller's buffer.
func TestReadRoundTripAllocs(t *testing.T) {
	if allocgate.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames")
	}
	cl := servePipe(t, patternFS{}, 1)
	ctx := context.Background()
	h, err := cl.Open(ctx, "fast/allocs", 0)
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(n int) (allocs float64, bytes uint64) {
		buf := make([]byte, n)
		read := func() {
			if got, err := h.ReadAt(ctx, buf, 4096); got != n || err != nil {
				t.Fatalf("ReadAt: %d, %v", got, err)
			}
		}
		for i := 0; i < 20; i++ {
			read() // warm the frame pools
		}
		return testing.AllocsPerRun(200, read), allocgate.BytesPerRun(200, read)
	}
	smallN, smallB := perOp(1 << 10)
	largeN, largeB := perOp(64 << 10)
	t.Logf("1 KB read: %v allocs, %d B; 64 KB read: %v allocs, %d B", smallN, smallB, largeN, largeB)
	const maxAllocs, maxBytes = 12, 1024
	if smallN > maxAllocs || largeN > maxAllocs {
		t.Errorf("allocs per read round trip: %v (1 KB), %v (64 KB); want <= %d", smallN, largeN, maxAllocs)
	}
	if smallB > maxBytes || largeB > maxBytes {
		t.Errorf("bytes allocated per read round trip: %d (1 KB), %d (64 KB); want <= %d whatever the payload", smallB, largeB, maxBytes)
	}
}

// TestWriteRoundTripAllocs is the same gate for the way down, end to end: a
// write inside the byte size of a file on a real volume — client, both
// codecs, server, LocalFS, core, the data cache, the simulated disk —
// allocates a small fixed number of small objects, the same for 1 KB as for
// 64 KB. The payload is encoded into a recycled frame, received into one,
// and goes from there to the platter and the cache's frames; nothing on the
// way makes a buffer its size.
func TestWriteRoundTripAllocs(t *testing.T) {
	if allocgate.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames")
	}
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	vol, err := cedarfs.Format(d, cedarfs.Config{AsyncApply: true, AdaptiveCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Shutdown()
	cl := servePipe(t, cedarfs.NewLocalFS(vol), 1)
	ctx := context.Background()
	h, err := cl.Create(ctx, "fast/allocs", make([]byte, 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(n int) (allocs float64, bytes uint64) {
		buf := make([]byte, n)
		write := func() {
			if got, _, err := h.WriteAt(ctx, buf, 4096); got != n || err != nil {
				t.Fatalf("WriteAt: %d, %v", got, err)
			}
		}
		for i := 0; i < 20; i++ {
			write() // warm the frame pools
		}
		return testing.AllocsPerRun(200, write), allocgate.BytesPerRun(200, write)
	}
	smallN, smallB := perOp(1 << 10)
	largeN, largeB := perOp(64 << 10)
	t.Logf("1 KB write: %v allocs, %d B; 64 KB write: %v allocs, %d B", smallN, smallB, largeN, largeB)
	const maxAllocs, maxBytes = 12, 1024
	if smallN > maxAllocs || largeN > maxAllocs {
		t.Errorf("allocs per write round trip: %v (1 KB), %v (64 KB); want <= %d", smallN, largeN, maxAllocs)
	}
	if smallB > maxBytes || largeB > maxBytes {
		t.Errorf("bytes allocated per write round trip: %d (1 KB), %d (64 KB); want <= %d whatever the payload", smallB, largeB, maxBytes)
	}
}

// listFS answers Stat with a fixed info and List with a fixed listing, both
// built once: what a round trip allocates against it is the server's own.
type listFS struct {
	stubFS
	infos []cedarfs.FileInfo
}

func (l listFS) Stat(context.Context, string, uint32) (cedarfs.FileInfo, error) {
	return l.infos[0], nil
}
func (l listFS) List(context.Context, string) ([]cedarfs.FileInfo, error) { return l.infos, nil }

// TestMetaRoundTripAllocs is the server's allocation gate for the metadata
// path: a Stat and a 20-entry List, each sent as a raw frame over a
// net.Pipe and its reply read into a fixed buffer, so that the test's side
// allocates nothing. The server decodes the request's name and frames the
// reply from the stack into a recycled frame sized for it: what it
// allocates per request is a few bytes, less than one wire.Reply.
func TestMetaRoundTripAllocs(t *testing.T) {
	if allocgate.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames")
	}
	infos := make([]cedarfs.FileInfo, 20)
	for i := range infos {
		infos[i] = cedarfs.FileInfo{Name: fmt.Sprintf("gate/file-%02d", i), Version: 1, ByteSize: 4096, Pages: 8}
	}
	srv := server.New(listFS{infos: infos}, server.Config{})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	defer srv.Close()
	c, sc := net.Pipe()
	ln.conns <- sc
	defer c.Close()
	buf := make([]byte, 4096)
	roundTrip := func(req []byte) {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf[:wire.HeaderLen]); err != nil {
			t.Fatal(err)
		}
		n := int(binary.BigEndian.Uint32(buf))
		if _, err := io.ReadFull(c, buf[:n]); err != nil {
			t.Fatal(err)
		}
		if code := binary.BigEndian.Uint16(buf[5:]); code != 0 {
			t.Fatalf("request failed with code %d", code)
		}
	}
	for _, tc := range []struct {
		name string
		req  *wire.Request
	}{
		{"stat", &wire.Request{ID: 1, Op: wire.OpStat, Name: "gate/file-00"}},
		{"list", &wire.Request{ID: 2, Op: wire.OpList, Name: "gate/"}},
	} {
		req := wire.AppendRequest(nil, tc.req)
		f := func() { roundTrip(req) }
		for i := 0; i < 20; i++ {
			f() // warm the frame pools
		}
		allocs, bytes := testing.AllocsPerRun(200, f), allocgate.BytesPerRun(200, f)
		t.Logf("%s round trip: %v allocs, %d B", tc.name, allocs, bytes)
		if max := unsafe.Sizeof(wire.Reply{}); bytes >= uint64(max) {
			t.Errorf("a %s round trip allocates %d B on the server; a wire.Reply alone is %d", tc.name, bytes, max)
		}
		if allocs > 1 {
			t.Errorf("a %s round trip allocates %v times on the server; want only the request's name", tc.name, allocs)
		}
	}
}

func benchReadRoundTrip(b *testing.B, n int) {
	cl := servePipe(b, patternFS{}, 1)
	ctx := context.Background()
	h, err := cl.Open(ctx, "fast/bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadAt(ctx, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRoundTrip32K: one 32 KB read through client, wire, server and
// a net.Pipe, against an FS that costs a memset.
func BenchmarkReadRoundTrip32K(b *testing.B) { benchReadRoundTrip(b, 32<<10) }

// BenchmarkReadRoundTrip1K is the same round trip with a 1 KB payload: what
// is left is the fixed cost per request.
func BenchmarkReadRoundTrip1K(b *testing.B) { benchReadRoundTrip(b, 1<<10) }
