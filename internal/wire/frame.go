package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// Frame is a recycled frame buffer: B holds one frame, or one frame body.
//
// Ownership: a Frame has one owner at a time — whoever NewFrame or
// ReadFramePooled returned it to, until they hand it on (down a channel, to
// a writer) or Release it. Decoded messages borrow it: a Request's or
// Reply's Data aliases B, so the owner releases only when nobody will look
// at that Data again. A Frame that is never released is garbage like any
// other and costs the pool nothing; a Frame released while still in use
// would have two owners writing one buffer, which is why Release refuses a
// second call.
type Frame struct {
	B      []byte
	pooled bool // in a pool: set by Release, cleared by NewFrame
}

// Frames are pooled by capacity class, a power of two from 512 B to 1 MB —
// from the smallest reply to a frame of a few transfers. Larger ones (up to
// MaxFrame) are rare and are left to the collector.
const (
	minClass = 9
	maxClass = 20
)

var framePools [maxClass - minClass + 1]sync.Pool

// NewFrame returns an empty Frame whose B has capacity for at least n bytes.
func NewFrame(n int) *Frame {
	c := max(bits.Len(uint(max(n, 1)-1)), minClass) // 1<<c >= n
	if c > maxClass {
		return &Frame{B: make([]byte, 0, n)}
	}
	if f, _ := framePools[c-minClass].Get().(*Frame); f != nil {
		f.pooled = false
		return f
	}
	return &Frame{B: make([]byte, 0, 1<<c)}
}

// Release recycles f; the caller must not touch f or anything aliasing f.B
// afterwards. B may have been regrown by append: the frame goes to the
// class its capacity now fills.
func (f *Frame) Release() {
	if f.pooled {
		panic("wire: frame released twice")
	}
	c := bits.Len(uint(cap(f.B))) - 1 // 1<<c <= cap
	if c < minClass || c > maxClass {
		return
	}
	f.B = f.B[:0]
	f.pooled = true
	framePools[c-minClass].Put(f)
}

// ReadFramePooled reads one frame body from r, enforcing max (0 means
// MaxFrame), into a pooled Frame the caller owns. r should be buffered: the
// length prefix and the body are separate reads.
func ReadFramePooled(r io.Reader, max int) (*Frame, error) {
	if max <= 0 {
		max = MaxFrame
	}
	// The length prefix is read into the frame too, so that it needs no
	// buffer of its own.
	f := NewFrame(HeaderLen)
	if _, err := io.ReadFull(r, f.B[:HeaderLen]); err != nil {
		f.Release()
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.B[:HeaderLen]))
	if n > max {
		f.Release()
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, max)
	}
	if n > cap(f.B) {
		f.Release()
		f = NewFrame(n)
	}
	f.B = f.B[:n]
	if _, err := io.ReadFull(r, f.B); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}
