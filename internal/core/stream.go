package core

import (
	"fmt"
	"io"
)

// Stream adapters: Cedar clients consumed files as byte streams; these wrap
// the page operations in the standard io interfaces.

// Reader is a sequential io.Reader/io.Seeker over a file.
type Reader struct {
	f   *File
	off int64
}

var _ io.ReadSeeker = (*Reader)(nil)

// NewReader returns a reader positioned at the start of the file.
func (f *File) NewReader() *Reader { return &Reader{f: f} }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.off + offset
	case io.SeekEnd:
		abs = r.f.Size() + offset
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("core: negative seek position %d", abs)
	}
	r.off = abs
	return abs, nil
}

// Writer is a sequential io.Writer that appends from a starting offset;
// WriteAt grows the file's allocation as the stream runs past it.
type Writer struct {
	f   *File
	off int64
}

var _ io.Writer = (*Writer)(nil)

// NewWriter returns a writer positioned at offset off.
func (f *File) NewWriter(off int64) *Writer { return &Writer{f: f, off: off} }

// Write implements io.Writer: one WriteAt, which grows the file in whole
// pages when the stream runs past its allocation.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// WriteStream creates a new version of name from an io.Reader of unknown
// length — the general form of Create for producers that stream output
// (compilers writing object files page by page, in the paper's world).
func (v *Volume) WriteStream(name string, r io.Reader) (*File, error) {
	f, err := v.Create(name, nil)
	if err != nil {
		return nil, err
	}
	w := f.NewWriter(0)
	if _, err := io.Copy(w, r); err != nil {
		return nil, fmt.Errorf("core: streaming into %q: %w", name, err)
	}
	return f, nil
}
