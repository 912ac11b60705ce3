// Package client is the remote implementation of the cedarfs.FS
// interface: it speaks the internal/wire protocol to an FSD network
// server (internal/server, cmd/fsdserver) over a pool of TCP connections.
//
// Requests are pipelined: each connection has a single writer path and a
// reader goroutine that matches replies to waiters by request id, so many
// operations can be in flight on one connection at once and slow replies
// (WaitCommitted, which the server parks) do not block fast ones behind
// them. Handles are session-scoped — a handle opened on one connection is
// an entry in that connection's server-side table — so all operations on a
// handle ride the connection that opened it; stateless operations
// round-robin across the pool.
//
// Buffers: request frames are built in, and reply frames read (through a
// buffered reader) into, pooled wire.Frames. A request's frame is recycled
// once written. A reply's is recycled by the reader goroutine at once,
// unless it carries read data: that reply goes to its waiter still holding
// the frame, ReadAt copies the data out — the one copy on this side — and
// then recycles it. A reply nobody collects (its caller gave up) keeps its
// frame until the collector takes both.
//
// Waiters: a request waits for its reply on a waiter — a 1-buffered channel
// and the reply the reader goroutine decodes into — which each connection
// recycles once its caller has taken the reply out, so a round trip
// allocates none. A waiter whose caller gave up on its context is never
// recycled: the late reply may still land in it, and the collector takes it.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	cedarfs "repro"
	"repro/internal/wire"
)

// Options tunes Dial. The zero value is usable.
type Options struct {
	// Conns is the connection pool size (default 4).
	Conns int
	// MaxFrame bounds accepted reply frames and the payload the client
	// packs into one request frame — large writes and reads are chunked
	// under it, oversized creates fail with ErrBadRequest. It must not
	// exceed the server's own frame limit (0 = wire.MaxFrame, the shared
	// default).
	MaxFrame int
	// DialTimeout bounds each TCP dial (0 = 10s).
	DialTimeout time.Duration
	// Dialer overrides the transport; tests use it to dial in-process
	// listeners. nil means net.DialTimeout("tcp", addr, DialTimeout).
	Dialer func(addr string) (net.Conn, error)
}

// Client is a connection-pooled, pipelining cedarfs.FS over the wire
// protocol.
type Client struct {
	opts  Options
	conns []*conn
	next  atomic.Uint32 // round-robin cursor
	seq   atomic.Uint64 // newest CommitSeq seen on any ack
	proto atomic.Uint64 // protocol errors observed

	closed atomic.Bool
}

var _ cedarfs.FS = (*Client)(nil)

// Dial connects the pool and returns the client.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 4
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	dial := opts.Dialer
	if dial == nil {
		dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, opts.DialTimeout)
		}
	}
	c := &Client{opts: opts}
	for i := 0; i < opts.Conns; i++ {
		nc, err := dial(addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: dial %s: %w", addr, err)
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		cn := &conn{cl: c, nc: nc, pending: map[uint32]*waiter{}}
		c.conns = append(c.conns, cn)
		go cn.readLoop()
	}
	return c, nil
}

// LastCommitSeq returns the newest commit sequence any acknowledgement
// carried: WaitCommitted(LastCommitSeq()) is the client-side fsync over
// everything this client has been acked.
func (c *Client) LastCommitSeq() uint64 { return c.seq.Load() }

// ProtocolErrors counts undecodable or mismatched replies observed.
func (c *Client) ProtocolErrors() uint64 { return c.proto.Load() }

// Close closes every connection; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, cn := range c.conns {
		cn.close(cedarfs.ErrClosed)
	}
	return nil
}

// pick selects a pool connection for a stateless request.
func (c *Client) pick() *conn {
	n := c.next.Add(1)
	return c.conns[int(n)%len(c.conns)]
}

// frameSlack is the request-frame overhead budget: the fixed header fields
// (id, op, handle, offset, lengths) never approach it, and it matches the
// margin the server applies to read requests.
const frameSlack = 64

// maxData returns the largest payload one request frame may carry under
// the configured frame limit. Sending a frame the server's frame reader
// rejects would not fail one call — it would desync and drop the whole
// session — so the client never builds one.
func (c *Client) maxData() int {
	max := c.opts.MaxFrame
	if max <= 0 {
		max = wire.MaxFrame
	}
	return max - frameSlack
}

// checkName rejects names the wire format cannot carry: encoding would
// truncate them (desync-proof, but silently operating on a different
// name). The volume's own 255-byte cap is enforced server-side.
func checkName(name string) error {
	if len(name) > wire.MaxString {
		return fmt.Errorf("%w: name of %d bytes exceeds wire limit %d", cedarfs.ErrBadRequest, len(name), wire.MaxString)
	}
	return nil
}

// conn is one pooled connection: a locked writer and a reader goroutine
// dispatching replies by id.
type conn struct {
	cl *Client
	nc net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint32]*waiter
	free    []*waiter // waiters whose callers took their replies out
	nextID  uint32
	err     error // set once the connection is dead
}

// reply is a decoded reply on its way to its waiter. frame is non-nil when
// Data aliases it: the waiter owns the frame and releases it once it has
// copied the data out.
type reply struct {
	wire.Reply
	frame *wire.Frame
}

// waiter is where one request's reply arrives: the reader goroutine fills
// rep and then signals done, or closes done if the connection dies first.
type waiter struct {
	done chan struct{} // 1-buffered: the reader never blocks on it
	rep  reply
}

// close fails the connection: every pending waiter gets err.
func (cn *conn) close(err error) {
	cn.mu.Lock()
	if cn.err == nil {
		cn.err = err
	}
	waiters := cn.pending
	cn.pending = map[uint32]*waiter{}
	cn.mu.Unlock()
	cn.nc.Close()
	for _, w := range waiters {
		close(w.done) // receivers translate a closed channel into cn.err
	}
}

// register registers a waiter for a request on cn, recycled if cn has one,
// and returns it with the request's id.
func (cn *conn) register() (*waiter, uint32, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return nil, 0, cn.err
	}
	var w *waiter
	if n := len(cn.free); n > 0 {
		w, cn.free[n-1] = cn.free[n-1], nil
		cn.free = cn.free[:n-1]
	} else {
		w = &waiter{done: make(chan struct{}, 1)}
	}
	cn.nextID++
	cn.pending[cn.nextID] = w
	return w, cn.nextID, nil
}

// recycle hands back a waiter whose reply its caller has taken out.
func (cn *conn) recycle(w *waiter) {
	w.rep = reply{}
	cn.mu.Lock()
	cn.free = append(cn.free, w)
	cn.mu.Unlock()
}

func (cn *conn) readLoop() {
	r := bufio.NewReader(cn.nc)
	for {
		f, err := wire.ReadFramePooled(r, cn.cl.opts.MaxFrame)
		if err != nil {
			if !cn.cl.closed.Load() && err != io.EOF {
				cn.cl.proto.Add(1)
			}
			cn.close(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		p, err := wire.DecodeReply(f.B)
		if err != nil {
			cn.cl.proto.Add(1)
			cn.close(fmt.Errorf("client: undecodable reply: %w", err))
			return
		}
		var frame *wire.Frame
		if len(p.Data) > 0 {
			frame = f
		} else {
			f.Release() // nothing else of a reply aliases its frame
		}
		cn.mu.Lock()
		w, ok := cn.pending[p.ID]
		delete(cn.pending, p.ID)
		cn.mu.Unlock()
		if !ok {
			// A reply nobody asked for: protocol desync.
			cn.cl.proto.Add(1)
			cn.close(fmt.Errorf("client: reply for unknown request %d", p.ID))
			return
		}
		w.rep = reply{Reply: p, frame: frame}
		w.done <- struct{}{}
	}
}

// roundTrip sends q on cn and waits for its reply, honoring ctx. The
// request id is assigned here. The reply comes back by value: its waiter
// goes back to cn once the reply is out of it.
func (cn *conn) roundTrip(ctx context.Context, q *wire.Request) (reply, error) {
	if cn.cl.closed.Load() {
		return reply{}, cedarfs.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return reply{}, err
	}
	w, id, err := cn.register()
	if err != nil {
		return reply{}, err
	}
	q.ID = id

	f := wire.NewFrame(len(q.Data) + len(q.Name) + len(q.Name2) + frameSlack)
	f.B = wire.AppendRequest(f.B, q)
	cn.wmu.Lock()
	err = wire.WriteFrame(cn.nc, f.B)
	cn.wmu.Unlock()
	f.Release()
	if err != nil {
		cn.close(fmt.Errorf("client: write failed: %w", err))
		return reply{}, err
	}

	select {
	case _, ok := <-w.done:
		if !ok {
			cn.mu.Lock()
			err := cn.err
			cn.mu.Unlock()
			if err == nil {
				err = cedarfs.ErrClosed
			}
			return reply{}, err
		}
		p := w.rep
		cn.recycle(w)
		if p.Code != 0 {
			return reply{}, &cedarfs.RemoteError{Code: cedarfs.ErrCode(p.Code), Msg: p.Msg}
		}
		cn.cl.noteSeq(p.CommitSeq)
		return p, nil
	case <-ctx.Done():
		// Abandon the wait but leave the entry registered: the late reply,
		// if it ever lands, is absorbed by the 1-buffered channel and the
		// entry is removed by readLoop as usual. Deregistering here would
		// make readLoop see the reply as one nobody asked for — a protocol
		// desync — and close the connection under every other in-flight
		// request. The entry lingers only until the server replies or the
		// connection dies; the waiter is never recycled, since the late
		// reply may still be written into it.
		return reply{}, ctx.Err()
	}
}

// noteSeq advances the high-water commit sequence.
func (c *Client) noteSeq(seq uint64) {
	for {
		cur := c.seq.Load()
		if seq <= cur || c.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// --- FS implementation ---

func (c *Client) Open(ctx context.Context, name string, version uint32) (cedarfs.Handle, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	cn := c.pick()
	p, err := cn.roundTrip(ctx, &wire.Request{Op: wire.OpOpen, Name: name, Version: version})
	if err != nil {
		return nil, err
	}
	return &remoteHandle{cn: cn, id: p.Handle, info: p.Info}, nil
}

func (c *Client) Create(ctx context.Context, name string, data []byte) (cedarfs.Handle, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if len(data)+len(name) > c.maxData() {
		return nil, fmt.Errorf("%w: create of %d bytes exceeds frame limit (create empty and stream with WriteAt)",
			cedarfs.ErrBadRequest, len(data))
	}
	cn := c.pick()
	p, err := cn.roundTrip(ctx, &wire.Request{Op: wire.OpCreate, Name: name, Data: data})
	if err != nil {
		return nil, err
	}
	return &remoteHandle{cn: cn, id: p.Handle, info: p.Info}, nil
}

func (c *Client) Stat(ctx context.Context, name string, version uint32) (cedarfs.FileInfo, error) {
	if err := checkName(name); err != nil {
		return cedarfs.FileInfo{}, err
	}
	p, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpStat, Name: name, Version: version})
	if err != nil {
		return cedarfs.FileInfo{}, err
	}
	return p.Info, nil
}

func (c *Client) List(ctx context.Context, prefix string) ([]cedarfs.FileInfo, error) {
	if err := checkName(prefix); err != nil {
		return nil, err
	}
	p, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpList, Name: prefix})
	if err != nil {
		return nil, err
	}
	return p.Infos, nil
}

func (c *Client) Rename(ctx context.Context, oldName, newName string) error {
	if err := checkName(oldName); err != nil {
		return err
	}
	if err := checkName(newName); err != nil {
		return err
	}
	_, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpRename, Name: oldName, Name2: newName})
	return err
}

func (c *Client) Delete(ctx context.Context, name string, version uint32) error {
	if err := checkName(name); err != nil {
		return err
	}
	_, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpDelete, Name: name, Version: version})
	return err
}

func (c *Client) SetKeep(ctx context.Context, name string, keep uint16) error {
	if err := checkName(name); err != nil {
		return err
	}
	_, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpSetKeep, Name: name, Keep: keep})
	return err
}

func (c *Client) Force(ctx context.Context) (uint64, error) {
	p, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpForce})
	if err != nil {
		return 0, err
	}
	return p.Seq, nil
}

func (c *Client) WaitCommitted(ctx context.Context, seq uint64) error {
	_, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpWaitCommitted, Seq: seq})
	return err
}

func (c *Client) Stats(ctx context.Context) (cedarfs.FSStats, error) {
	p, err := c.pick().roundTrip(ctx, &wire.Request{Op: wire.OpStats})
	if err != nil {
		return cedarfs.FSStats{}, err
	}
	return p.Stats, nil
}

// remoteHandle is a handle in one connection's server-side session table.
type remoteHandle struct {
	cn *conn
	id uint32

	mu     sync.Mutex
	info   cedarfs.FileInfo
	closed bool
}

func (h *remoteHandle) Info() cedarfs.FileInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.info
}

func (h *remoteHandle) guard() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return cedarfs.ErrClosed
	}
	return nil
}

// ReadAt issues one read request per frame-limit-sized chunk; a buffer
// larger than a frame becomes a sequence of reads rather than a request
// the server would reject.
func (h *remoteHandle) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	max := h.cn.cl.maxData()
	read := 0
	for {
		want := len(p) - read
		if want > max {
			want = max
		}
		rep, err := h.cn.roundTrip(ctx, &wire.Request{
			Op: wire.OpRead, Handle: h.id, Off: uint64(off) + uint64(read), N: uint32(want),
		})
		if err != nil {
			return read, err
		}
		n := copy(p[read:], rep.Data)
		if rep.frame != nil {
			rep.frame.Release()
		}
		read += n
		if n < want {
			// The server answers a read at/past EOF, or one it could only
			// partially satisfy, with short data; io.ReaderAt semantics say
			// that is io.EOF.
			return read, io.EOF
		}
		if read == len(p) {
			return read, nil
		}
	}
}

// WriteAt streams p as one write request per frame-limit-sized chunk (the
// wire protocol's write-stream idiom). A payload the server's frame limit
// cannot hold must never be sent whole: the server drops the entire
// session on an oversized frame, it does not fail the one call. The
// returned sequence is the last chunk's ack; waiting on it covers every
// chunk before it.
func (h *remoteHandle) WriteAt(ctx context.Context, p []byte, off int64) (int, uint64, error) {
	if err := h.guard(); err != nil {
		return 0, 0, err
	}
	max := h.cn.cl.maxData()
	written := 0
	var seq uint64
	for {
		chunk := p[written:]
		if len(chunk) > max {
			chunk = chunk[:max]
		}
		rep, err := h.cn.roundTrip(ctx, &wire.Request{
			Op: wire.OpWrite, Handle: h.id, Off: uint64(off) + uint64(written), Data: chunk,
		})
		if err != nil {
			return written, seq, err
		}
		written += int(rep.N)
		seq = rep.CommitSeq
		if int(rep.N) < len(chunk) {
			return written, seq, io.ErrShortWrite
		}
		if written >= len(p) {
			break
		}
	}
	h.mu.Lock()
	if end := uint64(off) + uint64(written); end > h.info.ByteSize {
		h.info.ByteSize = end
	}
	h.mu.Unlock()
	return written, seq, nil
}

func (h *remoteHandle) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	// Releasing the server-side table entry is best-effort: if the
	// connection is already gone, so is the session table.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := h.cn.roundTrip(ctx, &wire.Request{Op: wire.OpCloseHandle, Handle: h.id})
	if err != nil && !cedarfsIsTransport(err) {
		return err
	}
	return nil
}

// cedarfsIsTransport reports errors that mean "the session is gone", which
// Close treats as success: anything that is not a server-side RemoteError.
func cedarfsIsTransport(err error) bool {
	var re *cedarfs.RemoteError
	return !errors.As(err, &re)
}
