// Package server is the FSD network front-end: a concurrent TCP file
// server speaking the internal/wire protocol over any cedarfs.FS — in
// practice the local adapter over a mounted volume. The paper's FSD served
// a building of Dorados from one machine; this server is that machine.
//
// Concurrency model (the per-session goroutine + shared-applier split):
// every accepted connection is one session with its own request-loop
// goroutine and its own handle table; all sessions share the one FS, whose
// own locking (the split monitor, the intent queue's single applier) is
// the serialization point. Within a session requests execute in arrival
// order and replies return in that order — except WaitCommitted, which
// parks in its own goroutine and replies out of order when the commit
// lands, so a durability wait never stalls the pipeline of requests
// behind it (that is the point of the pipelined group commit). A dedicated
// writer goroutine per session serializes reply frames, and sends every
// reply queued at a wake-up in one write.
//
// Buffers: requests are read (through a buffered reader) into pooled
// wire.Frames and replies are built in them. A request's frame is recycled
// as soon as its call returns — the FS keeps nothing of q.Data, by the
// cedarfs.FS contract — and a reply's once the writer has sent it. A read's
// payload is produced by ReadAt directly in the reply frame.
//
// Backpressure: when the volume runs the asynchronous metadata pipeline,
// the session loop consults the intent-queue depth before executing a
// mutation and stalls (stops consuming from the socket, letting TCP flow
// control push back on the client) while the queue is above the
// configured threshold. The signal is the same queue depth that
// Stats().Intent reports; see Config.BackpressureDepth.
package server

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

// depthReporter is implemented by FS values that can report their intent
// queue depth cheaply (the local adapter); the server uses it for
// backpressure when present.
type depthReporter interface{ IntentDepth() int }

// seqReporter is implemented by FS values that can report the commit
// sequence cheaply (an atomic load); without it the server stamps replies
// with a full Stats call.
type seqReporter interface{ CommitSeq() uint64 }

// Config tunes the server. The zero value serves with the defaults.
type Config struct {
	// MaxFrame bounds accepted request frames (0 = wire.MaxFrame).
	MaxFrame int
	// MaxSessions caps concurrent sessions; further accepts are closed
	// immediately. 0 means unlimited.
	MaxSessions int
	// BackpressureDepth is the intent-queue depth above which the session
	// loop stalls mutations. 0 means 3/4 of the queue limit reported by
	// the FS (or no backpressure when the FS reports none); negative
	// disables backpressure.
	BackpressureDepth int
}

// Stats is the server's own counter snapshot (the volume's counters live
// behind FS.Stats).
type Stats struct {
	Sessions       uint32 // currently connected
	SessionsTotal  uint64 // accepted since start
	SessionsDenied uint64 // closed at accept by MaxSessions
	Requests       uint64 // requests executed
	Errors         uint64 // requests answered with an error code
	ProtocolErrors uint64 // undecodable frames / oversized frames
	Stalls         uint64 // backpressure stalls
	OpenHandles    uint32 // handles currently in session tables
}

// Server serves one FS to many sessions.
type Server struct {
	fs  cedarfs.FS
	cfg Config

	depth   depthReporter // nil when the FS cannot report
	seq     seqReporter   // nil when the FS cannot report
	bpLimit int           // resolved backpressure threshold; -1 = off

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	sessions       atomic.Int32
	sessionsTotal  atomic.Uint64
	sessionsDenied atomic.Uint64
	requests       atomic.Uint64
	errorsN        atomic.Uint64
	protoErrors    atomic.Uint64
	stalls         atomic.Uint64
	openHandles    atomic.Int32

	wg sync.WaitGroup
}

// New builds a server over fs.
func New(fs cedarfs.FS, cfg Config) *Server {
	s := &Server{
		fs:        fs,
		cfg:       cfg,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}
	if d, ok := fs.(depthReporter); ok {
		s.depth = d
	}
	if q, ok := fs.(seqReporter); ok {
		s.seq = q
	}
	// Resolve the backpressure threshold once: the queue limit is fixed at
	// mount time.
	s.bpLimit = -1
	if s.depth != nil && cfg.BackpressureDepth >= 0 {
		if cfg.BackpressureDepth > 0 {
			s.bpLimit = cfg.BackpressureDepth
		} else if st, err := fs.Stats(context.Background()); err == nil && st.IntentLimit > 0 {
			s.bpLimit = int(st.IntentLimit) * 3 / 4
		}
	}
	return s
}

// Serve accepts sessions on l until the listener fails or the server is
// closed. It blocks; run it in a goroutine to serve several listeners.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return cedarfs.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if s.cfg.MaxSessions > 0 && int(s.sessions.Load()) >= s.cfg.MaxSessions {
			s.sessionsDenied.Add(1)
			c.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.sessions.Add(1)
		s.sessionsTotal.Add(1)
		s.wg.Add(1)
		go s.serveSession(c)
	}
}

// Close stops accepting, closes every session, and waits for their
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:       uint32(s.sessions.Load()),
		SessionsTotal:  s.sessionsTotal.Load(),
		SessionsDenied: s.sessionsDenied.Load(),
		Requests:       s.requests.Load(),
		Errors:         s.errorsN.Load(),
		ProtocolErrors: s.protoErrors.Load(),
		Stalls:         s.stalls.Load(),
		OpenHandles:    uint32(s.openHandles.Load()),
	}
}

// session is one connection's state: the handle table and the reply
// channel feeding the writer goroutine.
type session struct {
	srv  *Server
	conn net.Conn
	ctx  context.Context // cancelled once the connection is done

	mu      sync.Mutex
	handles map[uint32]cedarfs.Handle
	nextH   uint32

	replies chan *wire.Frame // framed replies; closed by the request loop
	wg      sync.WaitGroup
}

func (s *Server) serveSession(c net.Conn) {
	defer s.wg.Done()
	defer s.sessions.Add(-1)
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{
		srv:     s,
		conn:    c,
		ctx:     ctx,
		handles: map[uint32]cedarfs.Handle{},
		replies: make(chan *wire.Frame, 64),
	}
	// Writer goroutine: the single owner of the connection's write side.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sess.writeLoop()
	}()
	sess.loop()
	// The connection is done (client went away, or Close killed it):
	// cancel the session context so parked WaitCommitted goroutines stop
	// waiting — otherwise a wait for a commit that never lands would wedge
	// this wg.Wait, and through it Server.Close.
	cancel()
	// In-flight WaitCommitted goroutines still hold the channel.
	sess.wg.Wait()
	close(sess.replies)
	<-writerDone
	c.Close()
	// Release the session's handles.
	sess.mu.Lock()
	n := len(sess.handles)
	for _, h := range sess.handles {
		h.Close()
	}
	sess.handles = nil
	sess.mu.Unlock()
	s.openHandles.Add(int32(-n))
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// writeLoop sends the queued replies until the channel closes. Each wake-up
// drains whatever is queued into one buffered write and flushes when the
// queue is empty — it never waits for a reply that is not there yet. A
// frame larger than the buffer is written through to the socket, not staged.
func (sess *session) writeLoop() {
	w := bufio.NewWriter(sess.conn)
	for f := range sess.replies {
		err := sess.writeReply(w, f)
	queued:
		for err == nil {
			select {
			case f, ok := <-sess.replies:
				if !ok {
					break queued
				}
				err = sess.writeReply(w, f)
			default:
				break queued
			}
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			// Replies undeliverable: kill the read side too; the request
			// loop will exit, and the frames still queued are drained
			// here unsent (every write after the first error fails fast).
			sess.conn.Close()
		}
	}
}

// writeReply writes one reply frame and recycles it.
func (sess *session) writeReply(w *bufio.Writer, f *wire.Frame) error {
	_, err := w.Write(f.B)
	f.Release()
	return err
}

// loop reads and executes requests until the connection dies or a frame is
// malformed (a session that cannot be parsed cannot be trusted to stay in
// sync, so it is dropped).
func (sess *session) loop() {
	s := sess.srv
	r := bufio.NewReader(sess.conn)
	for {
		f, err := wire.ReadFramePooled(r, s.cfg.MaxFrame)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				s.protoErrors.Add(1)
			}
			return
		}
		q, err := wire.DecodeRequest(f.B)
		if err != nil {
			s.protoErrors.Add(1)
			return
		}
		s.requests.Add(1)
		sess.dispatch(&q)
		// q.Data was the only view into the frame, and the call it was
		// passed to has returned: the next request may have the buffer.
		f.Release()
	}
}

// dispatch executes q and queues its reply, or parks it if it must wait.
func (sess *session) dispatch(q *wire.Request) {
	s := sess.srv
	if q.Op == wire.OpWaitCommitted {
		// A sequence above the ack watermark was never handed out by
		// this server and can never commit; parking on it would hold
		// the wait (and session teardown) forever. Reject it up front.
		if q.Seq > s.commitSeq() {
			sess.send(sess.fail(q, fmt.Errorf("%w: wait for unissued commit seq %d", cedarfs.ErrBadRequest, q.Seq)))
			return
		}
		// Park the durability wait off the pipeline: requests behind
		// it keep executing, the reply goes out when the commit
		// lands. The session context unparks it if the connection
		// dies first.
		sess.wg.Add(1)
		go func(q wire.Request) {
			defer sess.wg.Done()
			err := s.fs.WaitCommitted(sess.ctx, q.Seq)
			sess.send(sess.reply(&q, err, wire.Reply{}))
		}(*q)
		return
	}
	if mutates(q.Op) {
		sess.stallForBackpressure()
	}
	sess.send(sess.execute(q))
}

// mutates reports whether an op feeds the intent queue.
func mutates(op wire.Op) bool {
	switch op {
	case wire.OpCreate, wire.OpWrite, wire.OpRename, wire.OpDelete, wire.OpSetKeep:
		return true
	}
	return false
}

// stallPoll is how often a stalled session re-checks the queue depth.
const stallPoll = 200 * time.Microsecond

// stallForBackpressure blocks while the intent queue is above the
// threshold. TCP flow control propagates the stall to the client.
func (sess *session) stallForBackpressure() {
	s := sess.srv
	limit := s.bpLimit
	if limit < 0 || s.depth.IntentDepth() <= limit {
		return
	}
	s.stalls.Add(1)
	for s.depth.IntentDepth() > limit {
		time.Sleep(stallPoll)
	}
}

// send queues a framed reply for the writer goroutine, which owns it from
// here on.
func (sess *session) send(frame *wire.Frame) {
	// The replies channel is only closed after loop() returns and the
	// wait-group drains, and both senders hold either the loop or a
	// wait-group slot, so this send cannot race the close.
	sess.replies <- frame
}

// reply frames q's reply: err's, if it is not nil, else the op-specific
// payload p, stamped with the ack watermark. The payload travels by value
// and is framed from the stack: a request allocates no reply object.
func (sess *session) reply(q *wire.Request, err error, p wire.Reply) *wire.Frame {
	if err != nil {
		return sess.fail(q, err)
	}
	p.CommitSeq = sess.srv.commitSeq()
	return sess.frame(wire.NewFrame(0), q, p)
}

// replySeq is reply for a payload that carries its own commit sequence.
func (sess *session) replySeq(q *wire.Request, err error, p wire.Reply) *wire.Frame {
	if err != nil {
		return sess.fail(q, err)
	}
	return sess.frame(wire.NewFrame(0), q, p)
}

// fail frames the error reply err for q.
func (sess *session) fail(q *wire.Request, err error) *wire.Frame {
	return sess.failIn(wire.NewFrame(0), q, err)
}

// failIn is fail into a frame the caller already holds.
func (sess *session) failIn(f *wire.Frame, q *wire.Request, err error) *wire.Frame {
	sess.srv.errorsN.Add(1)
	return sess.frame(f, q, wire.Reply{Code: uint16(cedarfs.Code(err)), Msg: err.Error()})
}

// frame frames p, stamped with q's id and op, into f.
func (sess *session) frame(f *wire.Frame, q *wire.Request, p wire.Reply) *wire.Frame {
	p.ID, p.Op = q.ID, q.Op
	f.B = wire.AppendReply(f.B[:0], &p)
	return f
}

// opened frames the reply to an Open or a Create that returned h, err.
func (sess *session) opened(q *wire.Request, h cedarfs.Handle, err error) *wire.Frame {
	if err != nil {
		return sess.fail(q, err)
	}
	return sess.reply(q, nil, wire.Reply{Handle: sess.addHandle(h), Info: h.Info()})
}

// commitSeq samples the ack watermark carried on every success reply.
func (s *Server) commitSeq() uint64 {
	if s.seq != nil {
		return s.seq.CommitSeq()
	}
	st, err := s.fs.Stats(context.Background())
	if err != nil {
		return 0
	}
	return st.CommitSeq
}

// execute runs one request against the FS and frames the reply.
func (sess *session) execute(q *wire.Request) *wire.Frame {
	s := sess.srv
	ctx := sess.ctx
	switch q.Op {
	case wire.OpOpen:
		h, err := s.fs.Open(ctx, q.Name, q.Version)
		return sess.opened(q, h, err)
	case wire.OpCreate:
		h, err := s.fs.Create(ctx, q.Name, q.Data)
		return sess.opened(q, h, err)
	case wire.OpRead:
		h, err := sess.handle(q.Handle)
		if err != nil {
			return sess.fail(q, err)
		}
		if int(q.N) > s.maxFrame()-64 {
			return sess.fail(q, fmt.Errorf("%w: read of %d bytes exceeds frame limit", cedarfs.ErrBadRequest, q.N))
		}
		// The reply frame comes first and ReadAt fills its payload region:
		// the bytes are produced where they will be sent from.
		f := wire.NewFrame(wire.ReadReplyLen(int(q.N)))
		frame, payload := wire.AppendReadReply(f.B, q.ID, int(q.N))
		n, err := h.ReadAt(ctx, payload, int64(q.Off))
		if err == io.EOF && n > 0 {
			err = nil // partial read at end of file: success, short data
		}
		if err == io.EOF {
			// Read at/past EOF: success with empty data, the wire form of
			// io.EOF (the client reconstructs it).
			err = nil
			n = 0
		}
		if err != nil {
			return sess.failIn(f, q, err)
		}
		f.B = wire.FinishReadReply(frame, s.commitSeq(), int(q.N), n)
		return f
	case wire.OpWrite:
		h, err := sess.handle(q.Handle)
		if err != nil {
			return sess.fail(q, err)
		}
		n, seq, err := h.WriteAt(ctx, q.Data, int64(q.Off))
		// The ack rides the write's own sequence.
		return sess.replySeq(q, err, wire.Reply{N: uint32(n), CommitSeq: seq})
	case wire.OpCloseHandle:
		sess.mu.Lock()
		h, ok := sess.handles[q.Handle]
		delete(sess.handles, q.Handle)
		sess.mu.Unlock()
		if !ok {
			return sess.fail(q, fmt.Errorf("%w: unknown handle %d", cedarfs.ErrBadRequest, q.Handle))
		}
		s.openHandles.Add(-1)
		return sess.reply(q, h.Close(), wire.Reply{})
	case wire.OpStat:
		fi, err := s.fs.Stat(ctx, q.Name, q.Version)
		return sess.reply(q, err, wire.Reply{Info: fi})
	case wire.OpList:
		fis, err := s.fs.List(ctx, q.Name)
		return sess.reply(q, err, wire.Reply{Infos: fis})
	case wire.OpRename:
		return sess.reply(q, s.fs.Rename(ctx, q.Name, q.Name2), wire.Reply{})
	case wire.OpDelete:
		return sess.reply(q, s.fs.Delete(ctx, q.Name, q.Version), wire.Reply{})
	case wire.OpSetKeep:
		return sess.reply(q, s.fs.SetKeep(ctx, q.Name, q.Keep), wire.Reply{})
	case wire.OpForce:
		seq, err := s.fs.Force(ctx)
		return sess.replySeq(q, err, wire.Reply{Seq: seq, CommitSeq: seq})
	case wire.OpStats:
		st, err := s.fs.Stats(ctx)
		st.Sessions = uint32(s.sessions.Load())
		return sess.reply(q, err, wire.Reply{Stats: st})
	default:
		return sess.fail(q, fmt.Errorf("%w: op %d", cedarfs.ErrBadRequest, q.Op))
	}
}

func (s *Server) maxFrame() int {
	if s.cfg.MaxFrame > 0 {
		return s.cfg.MaxFrame
	}
	return wire.MaxFrame
}

// addHandle registers h in the session table and returns its id.
func (sess *session) addHandle(h cedarfs.Handle) uint32 {
	sess.mu.Lock()
	sess.nextH++
	id := sess.nextH
	sess.handles[id] = h
	sess.mu.Unlock()
	sess.srv.openHandles.Add(1)
	return id
}

// handle looks a handle id up.
func (sess *session) handle(id uint32) (cedarfs.Handle, error) {
	sess.mu.Lock()
	h, ok := sess.handles[id]
	sess.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: unknown handle %d", cedarfs.ErrBadRequest, id)
	}
	return h, nil
}
