// Package wire defines the compact length-prefixed binary protocol the FSD
// network front-end speaks: the framing, the request/reply message codecs,
// and nothing else. Both ends of the connection (internal/server and
// repro/client) share this package; the messages deliberately mirror the
// cedarfs.FS interface one to one, so the protocol surface and the API
// surface cannot drift apart.
//
// Framing: every message is one frame,
//
//	u32 length | body (length bytes)
//
// with the length covering only the body. Requests and replies share the
// body prefix
//
//	u32 requestID | u8 op
//
// and requests are matched to replies by requestID, which lets a client
// pipeline many requests on one connection and lets the server answer
// slow ones (WaitCommitted) out of order.
//
// Request body after the prefix (all integers big-endian):
//
//	Open          name string | u32 version
//	Create        name string | bytes data
//	Read          u32 handle | u64 off | u32 n
//	Write         u32 handle | u64 off | bytes data
//	CloseHandle   u32 handle
//	Stat          name string | u32 version
//	List          prefix string
//	Rename        old string | new string
//	Delete        name string | u32 version
//	SetKeep       name string | u16 keep
//	Force         —
//	WaitCommitted u64 seq
//	Stats         —
//
// Reply body after the prefix:
//
//	u16 code | msg string                              (code != 0: error)
//	u64 commitSeq | op-specific payload                (code == 0)
//
// Every success reply carries commitSeq — the commit sequence covering all
// operations the server has acknowledged so far — so any ack doubles as a
// durability watermark the client can WaitCommitted on.
//
// Strings are u16 length + bytes; byte slices are u32 length + bytes. A
// FileInfo is
//
//	name string | u32 version | u8 class | u16 keep | u64 byteSize |
//	u32 pages | linkTarget string
//
// Buffers: a decoded message borrows its frame — Request.Data and Reply.Data
// alias the body handed to the decoder, everything else is copied out — so
// the body must outlive the Data. Frames themselves are recycled through
// Frame (frame.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	cedarfs "repro"
)

// Op identifies a protocol operation.
type Op uint8

// The protocol operations. The numbering is wire-stable: append-only,
// never reused.
const (
	OpInvalid Op = iota
	OpOpen
	OpCreate
	OpRead
	OpWrite
	OpCloseHandle
	OpStat
	OpList
	OpRename
	OpDelete
	OpSetKeep
	OpForce
	OpWaitCommitted
	OpStats
	opMax
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCloseHandle:
		return "close-handle"
	case OpStat:
		return "stat"
	case OpList:
		return "list"
	case OpRename:
		return "rename"
	case OpDelete:
		return "delete"
	case OpSetKeep:
		return "set-keep"
	case OpForce:
		return "force"
	case OpWaitCommitted:
		return "wait-committed"
	case OpStats:
		return "stats"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Frame and payload limits. MaxFrame bounds what ReadFramePooled will accept
// (default; callers may lower it), and implies the payload caps: a write's
// data or a read's requested length can never exceed the frame that must
// carry it.
const (
	MaxFrame = 16 << 20
	// HeaderLen is the frame length prefix.
	HeaderLen = 4
	// MaxString is the longest string the format can carry (u16 length
	// prefix). Volume names are far shorter (core caps them at 255 bytes);
	// only error messages and unvalidated client input can approach it.
	MaxString = 65535
)

// Protocol errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds limit")
	ErrTruncated   = errors.New("wire: truncated message")
	ErrBadOp       = errors.New("wire: unknown op")
)

// Request is the decoded form of one request frame. Unused fields are zero
// for a given op; see the package comment for which fields each op
// carries.
type Request struct {
	ID      uint32
	Op      Op
	Name    string // Open/Create/Stat/Delete/SetKeep name, List prefix, Rename old
	Name2   string // Rename new
	Version uint32
	Handle  uint32
	Off     uint64
	N       uint32
	Keep    uint16
	Seq     uint64
	Data    []byte
}

// Reply is the decoded form of one reply frame. Code 0 is success; any
// other value is a cedarfs.ErrCode and only Msg accompanies it.
type Reply struct {
	ID        uint32
	Op        Op
	Code      uint16
	Msg       string
	CommitSeq uint64
	Handle    uint32
	N         uint32
	Seq       uint64
	Data      []byte
	Info      cedarfs.FileInfo
	Infos     []cedarfs.FileInfo
	Stats     cedarfs.FSStats
}

// --- primitive appenders ---

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendString(b []byte, s string) []byte {
	// Truncate consistently with the u16 prefix: a string the prefix cannot
	// describe must not desync the frame (the peer rejects trailing garbage
	// by tearing the connection down). Long server error messages lose
	// their tail; names are length-validated before they get here.
	if len(s) > MaxString {
		s = s[:MaxString]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// reader is a bounds-checked cursor over one frame body.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// bytes returns a length-prefixed byte string as a view of the frame body,
// capped so that appending to it cannot reach the bytes behind it.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// done rejects trailing garbage: a frame must be consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r.b)-r.off)
	}
	return nil
}

// --- FileInfo / FSStats codecs ---

func appendInfo(b []byte, fi *cedarfs.FileInfo) []byte {
	b = appendString(b, fi.Name)
	b = appendU32(b, fi.Version)
	b = append(b, byte(fi.Class))
	b = appendU16(b, fi.Keep)
	b = appendU64(b, fi.ByteSize)
	b = appendU32(b, fi.Pages)
	return appendString(b, fi.LinkTarget)
}

func (r *reader) info() cedarfs.FileInfo {
	var fi cedarfs.FileInfo
	fi.Name = r.str()
	fi.Version = r.u32()
	fi.Class = cedarfs.Class(r.u8())
	fi.Keep = r.u16()
	fi.ByteSize = r.u64()
	fi.Pages = r.u32()
	fi.LinkTarget = r.str()
	return fi
}

func appendStats(b []byte, st *cedarfs.FSStats) []byte {
	b = appendU64(b, st.CommitSeq)
	b = appendU64(b, st.Forces)
	b = appendU64(b, st.OpsTotal)
	b = appendU32(b, st.IntentDepth)
	b = appendU32(b, st.IntentLimit)
	b = append(b, byte(st.Health))
	return appendU32(b, st.Sessions)
}

func (r *reader) stats() cedarfs.FSStats {
	var st cedarfs.FSStats
	st.CommitSeq = r.u64()
	st.Forces = r.u64()
	st.OpsTotal = r.u64()
	st.IntentDepth = r.u32()
	st.IntentLimit = r.u32()
	st.Health = cedarfs.Health(r.u8())
	st.Sessions = r.u32()
	return st
}

// --- request codec ---

// AppendRequest appends the frame (length prefix included) for q to b.
func AppendRequest(b []byte, q *Request) []byte {
	start := len(b)
	b = appendU32(b, 0) // frame length, patched below
	b = appendU32(b, q.ID)
	b = append(b, byte(q.Op))
	switch q.Op {
	case OpOpen, OpStat, OpDelete:
		b = appendString(b, q.Name)
		b = appendU32(b, q.Version)
	case OpCreate:
		b = appendString(b, q.Name)
		b = appendBytes(b, q.Data)
	case OpRead:
		b = appendU32(b, q.Handle)
		b = appendU64(b, q.Off)
		b = appendU32(b, q.N)
	case OpWrite:
		b = appendU32(b, q.Handle)
		b = appendU64(b, q.Off)
		b = appendBytes(b, q.Data)
	case OpCloseHandle:
		b = appendU32(b, q.Handle)
	case OpList:
		b = appendString(b, q.Name)
	case OpRename:
		b = appendString(b, q.Name)
		b = appendString(b, q.Name2)
	case OpSetKeep:
		b = appendString(b, q.Name)
		b = appendU16(b, q.Keep)
	case OpForce, OpStats:
	case OpWaitCommitted:
		b = appendU64(b, q.Seq)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-HeaderLen))
	return b
}

// DecodeRequest decodes one frame body (without the length prefix). The
// request's Data aliases body.
func DecodeRequest(body []byte) (Request, error) {
	var q Request
	r := &reader{b: body}
	q.ID = r.u32()
	q.Op = Op(r.u8())
	if q.Op <= OpInvalid || q.Op >= opMax {
		if r.err == nil {
			return q, fmt.Errorf("%w: %d", ErrBadOp, q.Op)
		}
		return q, r.err
	}
	switch q.Op {
	case OpOpen, OpStat, OpDelete:
		q.Name = r.str()
		q.Version = r.u32()
	case OpCreate:
		q.Name = r.str()
		q.Data = r.bytes()
	case OpRead:
		q.Handle = r.u32()
		q.Off = r.u64()
		q.N = r.u32()
	case OpWrite:
		q.Handle = r.u32()
		q.Off = r.u64()
		q.Data = r.bytes()
	case OpCloseHandle:
		q.Handle = r.u32()
	case OpList:
		q.Name = r.str()
	case OpRename:
		q.Name = r.str()
		q.Name2 = r.str()
	case OpSetKeep:
		q.Name = r.str()
		q.Keep = r.u16()
	case OpForce, OpStats:
	case OpWaitCommitted:
		q.Seq = r.u64()
	}
	return q, r.done()
}

// --- reply codec ---

// AppendReply appends the frame (length prefix included) for p to b.
func AppendReply(b []byte, p *Reply) []byte {
	start := len(b)
	b = appendReplyHead(b, p.ID, p.Op, p.Code)
	if p.Code != 0 {
		b = appendString(b, p.Msg)
		binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-HeaderLen))
		return b
	}
	b = appendU64(b, p.CommitSeq)
	switch p.Op {
	case OpOpen, OpCreate:
		b = appendU32(b, p.Handle)
		b = appendInfo(b, &p.Info)
	case OpRead:
		b = appendBytes(b, p.Data)
	case OpWrite:
		b = appendU32(b, p.N)
	case OpStat:
		b = appendInfo(b, &p.Info)
	case OpList:
		b = appendU32(b, uint32(len(p.Infos)))
		for i := range p.Infos {
			b = appendInfo(b, &p.Infos[i])
		}
	case OpForce:
		b = appendU64(b, p.Seq)
	case OpStats:
		b = appendStats(b, &p.Stats)
	case OpCloseHandle, OpRename, OpDelete, OpSetKeep, OpWaitCommitted:
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-HeaderLen))
	return b
}

// appendReplyHead appends what every reply frame starts with: the length
// prefix (zero, for the caller to patch), the request id, the op, the code.
func appendReplyHead(b []byte, id uint32, op Op, code uint16) []byte {
	b = appendU32(b, 0)
	b = appendU32(b, id)
	b = append(b, byte(op))
	return appendU16(b, code)
}

// readReplyHead is the length of a successful OpRead reply up to its
// payload: reply head, commitSeq, payload length.
const readReplyHead = HeaderLen + 4 + 1 + 2 + 8 + 4

// ReadReplyLen returns the length of a successful OpRead reply frame
// carrying n bytes.
func ReadReplyLen(n int) int { return readReplyHead + n }

// AppendReadReply appends the frame of a successful OpRead reply to request
// id whose payload — up to n bytes — the caller produces in place: it
// returns the extended buffer and, within it, the n-byte payload region to
// fill (ReadAt straight into it, say). FinishReadReply completes the frame.
// The bytes are those AppendReply writes for the same reply; the point is
// that the payload is never copied into the frame.
func AppendReadReply(b []byte, id uint32, n int) (frame, payload []byte) {
	b = appendReplyHead(b, id, OpRead, 0)
	b = appendU64(b, 0)
	b = appendU32(b, 0)
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	return b, b[len(b)-n:]
}

// FinishReadReply completes the frame AppendReadReply(_, _, n) left at the
// end of b, of whose payload region the first got bytes were filled: it
// stamps commitSeq, trims the unfilled rest and patches the lengths.
func FinishReadReply(b []byte, commitSeq uint64, n, got int) []byte {
	start := len(b) - ReadReplyLen(n)
	b = b[:start+ReadReplyLen(got)]
	head := b[start:]
	binary.BigEndian.PutUint32(head, uint32(len(head)-HeaderLen))
	binary.BigEndian.PutUint64(head[readReplyHead-12:], commitSeq)
	binary.BigEndian.PutUint32(head[readReplyHead-4:], uint32(got))
	return b
}

// DecodeReply decodes one frame body (without the length prefix). The
// reply's Data aliases body.
func DecodeReply(body []byte) (Reply, error) {
	var p Reply
	r := &reader{b: body}
	p.ID = r.u32()
	p.Op = Op(r.u8())
	if p.Op <= OpInvalid || p.Op >= opMax {
		if r.err == nil {
			return p, fmt.Errorf("%w: %d", ErrBadOp, p.Op)
		}
		return p, r.err
	}
	p.Code = r.u16()
	if p.Code != 0 {
		p.Msg = r.str()
		return p, r.done()
	}
	p.CommitSeq = r.u64()
	switch p.Op {
	case OpOpen, OpCreate:
		p.Handle = r.u32()
		p.Info = r.info()
	case OpRead:
		p.Data = r.bytes()
	case OpWrite:
		p.N = r.u32()
	case OpStat:
		p.Info = r.info()
	case OpList:
		n := int(r.u32())
		// An entry is at least 16 bytes on the wire; reject counts the
		// frame cannot hold before allocating.
		if r.err == nil && n > (len(body)-r.off)/16+1 {
			return p, ErrTruncated
		}
		if n > 0 {
			p.Infos = make([]cedarfs.FileInfo, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			p.Infos[i] = r.info()
		}
	case OpForce:
		p.Seq = r.u64()
	case OpStats:
		p.Stats = r.stats()
	case OpCloseHandle, OpRename, OpDelete, OpSetKeep, OpWaitCommitted:
	}
	return p, r.done()
}

// --- frame I/O ---

// WriteFrame writes one already-framed message (as produced by
// AppendRequest/AppendReply) to w.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}
