package cedarfs

import (
	"context"
)

// FS is the transport-agnostic file-system interface: the contract every
// front-end layer (the network server, caching proxies, future sharding
// routers) programs against, implemented both by the in-process adapter
// over a mounted Volume (NewLocalFS) and by the remote client
// (repro/client). One shared conformance suite (internal/fstest) verifies
// both.
//
// Design points:
//
//   - Session-scoped handles: Open and Create return a Handle whose
//     lifetime is bounded by the FS that produced it. Over the network a
//     handle is an entry in one session's table and does not survive the
//     connection; Close releases it.
//   - Context-style cancellation: every call takes a context and returns
//     ctx.Err() when it is already cancelled. Remote implementations also
//     abandon the wait for a reply on cancellation; the operation itself
//     may still execute server-side (same as any RPC system).
//   - Wire-stable errors: failures map onto the numbered error registry
//     (ErrCode), so errors.Is(err, ErrNotFound) holds identically for the
//     local adapter and for a client talking to a server across the wire.
//   - Borrowed buffers: the data passed to Create and the p passed to
//     WriteAt are the caller's again the moment the call returns — an
//     implementation copies what it keeps (the server passes slices of a
//     frame it recycles for the next request) — and ReadAt fills the
//     caller's p and keeps no reference to it.
//   - Explicit durability: mutations are acknowledged when the volume
//     accepts them (group commit pending); acks carry the commit sequence,
//     and durability is a separate explicit step — Force returns the
//     sequence covering everything acknowledged so far, WaitCommitted
//     blocks until a sequence is on the platters.
type FS interface {
	// Open opens version (0 = newest) of name for reading and writing.
	Open(ctx context.Context, name string, version uint32) (Handle, error)
	// Create creates a new version of name holding data (which may be
	// empty — the streaming idiom is Create(nil) followed by sequential
	// WriteAt calls, which extend the allocation as the stream runs past
	// it).
	Create(ctx context.Context, name string, data []byte) (Handle, error)
	// Stat returns the entry for version (0 = newest) of name without
	// opening it.
	Stat(ctx context.Context, name string, version uint32) (FileInfo, error)
	// List returns every entry whose name starts with prefix, in name
	// table (name, version) order.
	List(ctx context.Context, prefix string) ([]FileInfo, error)
	// Rename moves every version of oldName to newName.
	Rename(ctx context.Context, oldName, newName string) error
	// Delete removes version (0 = newest) of name.
	Delete(ctx context.Context, name string, version uint32) error
	// SetKeep sets the keep count (versions to retain; 0 = keep all) of
	// name, deleting versions the new count no longer covers.
	SetKeep(ctx context.Context, name string, keep uint16) error
	// Force makes everything acknowledged so far durable and returns the
	// commit sequence it covered.
	Force(ctx context.Context) (uint64, error)
	// WaitCommitted blocks until commit sequence seq is durable, forcing
	// as needed.
	WaitCommitted(ctx context.Context, seq uint64) error
	// Stats snapshots the wire-stable counters of the file system behind
	// this interface.
	Stats(ctx context.Context) (FSStats, error)
	// Close releases the FS: the remote client closes its connections,
	// the local adapter invalidates its handles. It does not shut the
	// underlying volume down — volume lifecycle belongs to whoever
	// mounted it.
	Close() error
}

// Handle is an open file: the session-scoped unit of read/write access.
// Handles are safe for concurrent use.
type Handle interface {
	// Info returns the entry snapshot from open/create time, updated by
	// this handle's own writes.
	Info() FileInfo
	// ReadAt reads len(p) bytes at byte offset off with io.ReaderAt
	// semantics (io.EOF at the recorded byte size).
	ReadAt(ctx context.Context, p []byte, off int64) (int, error)
	// WriteAt writes p at byte offset off, extending the file's
	// allocation when the write runs past it, and returns the commit
	// sequence the acknowledgement rides on: WaitCommitted(seq) makes
	// this write (and everything acknowledged before it) durable.
	WriteAt(ctx context.Context, p []byte, off int64) (n int, seq uint64, err error)
	// Close releases the handle; subsequent calls on it fail with
	// ErrClosed.
	Close() error
}

// FileInfo is the wire-stable entry record: the subset of Entry that
// crosses the protocol boundary, free of disk-layout types.
type FileInfo struct {
	Name       string
	Version    uint32
	Class      Class
	Keep       uint16
	ByteSize   uint64
	Pages      uint32 // data pages (excluding the leader)
	LinkTarget string // SymLink only
}

// Info converts a full Entry to its wire form.
func Info(e *Entry) FileInfo {
	return FileInfo{
		Name:       e.Name,
		Version:    e.Version,
		Class:      e.Class,
		Keep:       e.Keep,
		ByteSize:   e.ByteSize,
		Pages:      uint32(e.Pages()),
		LinkTarget: e.LinkTarget,
	}
}

// FSStats is the wire-stable counter snapshot of FS.Stats: enough for a
// remote operator dashboard without dragging the full Stats tree (with its
// histograms and layout details) through the protocol.
type FSStats struct {
	// CommitSeq covers every operation acknowledged so far;
	// WaitCommitted(CommitSeq) is the remote fsync.
	CommitSeq uint64
	// Forces counts log forces (group commits) since mount.
	Forces uint64
	// OpsTotal counts logical file-system operations since mount.
	OpsTotal uint64
	// IntentDepth and IntentLimit report the asynchronous metadata
	// pipeline's queue (zero when the volume runs the staged path); the
	// depth approaching the limit is the server's backpressure signal.
	IntentDepth uint32
	IntentLimit uint32
	// Health is the volume health FSM state (HealthHealthy..HealthOffline).
	Health Health
	// Sessions counts currently connected sessions (0 for the local
	// adapter, which has no session concept).
	Sessions uint32
}
