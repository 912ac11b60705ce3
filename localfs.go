package cedarfs

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// NewLocalFS wraps a mounted Volume in the transport-agnostic FS
// interface: the in-process implementation the network server serves, and
// the reference the conformance suite (internal/fstest) holds the remote
// client against. Closing the FS invalidates it and its handles but does
// not shut the volume down.
func NewLocalFS(v *Volume) FS { return &localFS{v: v} }

type localFS struct {
	v      *Volume
	closed atomic.Bool
}

// ctxErr folds the two ways a call can be refused before touching the
// volume: the context is done, or the FS was closed.
func (l *localFS) ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if l.closed.Load() {
		return ErrClosed
	}
	return nil
}

func (l *localFS) Open(ctx context.Context, name string, version uint32) (Handle, error) {
	if err := l.ctxErr(ctx); err != nil {
		return nil, err
	}
	f, err := l.v.Open(name, version)
	if err != nil {
		return nil, err
	}
	return &localHandle{fs: l, f: f}, nil
}

func (l *localFS) Create(ctx context.Context, name string, data []byte) (Handle, error) {
	if err := l.ctxErr(ctx); err != nil {
		return nil, err
	}
	f, err := l.v.Create(name, data)
	if err != nil {
		return nil, err
	}
	return &localHandle{fs: l, f: f}, nil
}

func (l *localFS) Stat(ctx context.Context, name string, version uint32) (FileInfo, error) {
	if err := l.ctxErr(ctx); err != nil {
		return FileInfo{}, err
	}
	e, err := l.v.Stat(name, version)
	if err != nil {
		return FileInfo{}, err
	}
	return Info(e), nil
}

func (l *localFS) List(ctx context.Context, prefix string) ([]FileInfo, error) {
	if err := l.ctxErr(ctx); err != nil {
		return nil, err
	}
	sp := listScratch.Get().(*[]FileInfo)
	defer func() {
		clear(*sp) // the pool keeps no names alive
		*sp = (*sp)[:0]
		listScratch.Put(sp)
	}()
	err := l.v.List(prefix, func(e Entry) bool {
		*sp = append(*sp, Info(&e))
		return true
	})
	if err != nil || len(*sp) == 0 {
		return nil, err
	}
	return slices.Clone(*sp), nil
}

// listScratch holds the slices List collects a listing in before it copies
// it out at its final length: a listing regrown by append on every call
// would allocate about twice what it returns.
var listScratch = sync.Pool{New: func() any { return new([]FileInfo) }}

func (l *localFS) Rename(ctx context.Context, oldName, newName string) error {
	if err := l.ctxErr(ctx); err != nil {
		return err
	}
	return l.v.Rename(oldName, newName)
}

func (l *localFS) Delete(ctx context.Context, name string, version uint32) error {
	if err := l.ctxErr(ctx); err != nil {
		return err
	}
	return l.v.Delete(name, version)
}

func (l *localFS) SetKeep(ctx context.Context, name string, keep uint16) error {
	if err := l.ctxErr(ctx); err != nil {
		return err
	}
	return l.v.SetKeep(name, keep)
}

func (l *localFS) Force(ctx context.Context) (uint64, error) {
	if err := l.ctxErr(ctx); err != nil {
		return 0, err
	}
	seq := l.v.CommitSeq()
	if err := l.v.Force(); err != nil {
		return 0, err
	}
	return seq, nil
}

func (l *localFS) WaitCommitted(ctx context.Context, seq uint64) error {
	if err := l.ctxErr(ctx); err != nil {
		return err
	}
	if ctx.Done() == nil {
		return l.v.WaitCommitted(seq)
	}
	// The volume's wait is not cancellable, so run it aside and let the
	// caller stop waiting — the server parks one goroutine per durability
	// wait and must be able to reclaim it when the session dies. The inner
	// goroutine is not leaked indefinitely: the server only parks waits for
	// already-issued sequences, which commit (or fail with the volume's
	// error) in bounded time, and WaitCommitted itself forces as needed.
	done := make(chan error, 1)
	go func() { done <- l.v.WaitCommitted(seq) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *localFS) Stats(ctx context.Context) (FSStats, error) {
	if err := l.ctxErr(ctx); err != nil {
		return FSStats{}, err
	}
	st := l.v.Stats()
	ops := st.Ops
	return FSStats{
		CommitSeq: l.v.CommitSeq(),
		Forces:    uint64(st.Commit.Forces),
		OpsTotal: uint64(ops.Creates + ops.Opens + ops.Deletes + ops.Lists +
			ops.Reads + ops.Writes + ops.Touches),
		IntentDepth: uint32(l.v.IntentDepth()),
		IntentLimit: uint32(l.v.IntentQueueLimit()),
		Health:      st.Health,
	}, nil
}

func (l *localFS) Close() error {
	l.closed.Store(true)
	return nil
}

// IntentDepth exposes the volume's intent-queue depth to the server's
// backpressure check without a full Stats snapshot per request; see
// server.Config.BackpressureDepth.
func (l *localFS) IntentDepth() int { return l.v.IntentDepth() }

// CommitSeq exposes the ack watermark cheaply (an atomic load, vs the full
// Stats snapshot): the server stamps it on every reply.
func (l *localFS) CommitSeq() uint64 { return l.v.CommitSeq() }

// localHandle adapts a *core.File. The mutex guards only the closed flag
// and the info snapshot; file I/O itself relies on File's own locking.
type localHandle struct {
	fs *localFS

	mu     sync.Mutex
	f      *File
	closed bool
}

func (h *localHandle) file() (*File, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.fs.closed.Load() {
		return nil, ErrClosed
	}
	return h.f, nil
}

func (h *localHandle) Info() FileInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.f.Entry()
	return Info(&e)
}

func (h *localHandle) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	return f.ReadAt(p, off)
}

func (h *localHandle) WriteAt(ctx context.Context, p []byte, off int64) (int, uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	f, err := h.file()
	if err != nil {
		return 0, 0, err
	}
	// The streaming contract: a write past the allocation grows it in
	// whole pages (the wire protocol's write-stream op is a sequence of
	// these). core's WriteAt does that itself, in the one call that writes
	// the data, under the handle's lock: two writes racing past the
	// allocation cannot both size their growth off the same page count.
	n, err := f.WriteAt(p, off)
	return n, h.fs.v.CommitSeq(), err
}

func (h *localHandle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	return nil
}
