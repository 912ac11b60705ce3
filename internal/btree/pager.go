// Package btree implements the page-oriented B+tree used for the Cedar file
// name table.
//
// The tree operates on fixed-size pages supplied by a Pager, so the same
// tree code runs over three very different backing stores: an in-memory
// pager (tests), the CFS pager (synchronous in-place writes with no
// atomicity — the paper's "multi-page B-tree updates were not atomic"), and
// the FSD pager (a write-back cache whose page images are captured by the
// redo log and whose home writes are deferred; see internal/core).
//
// The tree serializes its own access with a readers-writer lock: lookups and
// scans run in parallel, mutations are exclusive. The file systems layer
// their own locking on top (Cedar used a single monitor; this reproduction's
// FSD splits it — see internal/core).
package btree

import (
	"errors"
	"fmt"
	"sync"
)

// Pager provides a flat space of fixed-size pages addressed by index. Page 0
// is reserved for the tree's meta page; the tree allocates the rest itself,
// by a high-water mark kept in the meta page, so page allocation is captured
// by whatever mechanism the Pager uses to persist writes.
//
// Buffer ownership — a read borrows, only a mutation copies:
//
//   - Read lends the pager's own page. The tree walks it in place and
//     never writes to it; a node it is about to change is copied first.
//     The pager must leave the bytes unchanged until the next Write of the
//     same id, and the tree issues that Write only under its exclusive
//     lock, so a page borrowed under the read lock is stable for the whole
//     operation — even if the pager evicts it meanwhile (the slice keeps
//     the memory alive).
//   - Write gives the buffer away. The pager may keep data as the page
//     (the FSD cache does), stamp its reserved bytes, or copy it (MemPager,
//     CFS); the tree does not touch data once Write has been called.
type Pager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// NumPages returns the number of pages in the space.
	NumPages() int
	// Read returns the contents of page id: read-only for the caller,
	// unchanged until the next Write of id.
	Read(id uint32) ([]byte, error)
	// Write replaces the contents of page id and takes ownership of data.
	// The Pager may buffer, log, or write through, but a subsequent Read
	// must observe the data.
	Write(id uint32, data []byte) error
}

// Errors returned by tree operations.
var (
	ErrNotFound  = errors.New("btree: key not found")
	ErrTooLarge  = errors.New("btree: key/value too large for page")
	ErrCorrupt   = errors.New("btree: structural corruption detected")
	ErrCollision = errors.New("btree: key already present")
	ErrFull      = errors.New("btree: page space exhausted")
)

// MemPager is an in-memory Pager for tests and for staging structures before
// they are written to disk (the CFS scavenger rebuilds the name table in a
// MemPager first). It locks internally, so concurrent tree readers (which
// share the Tree's read lock) never race on the lazy page allocation in
// Read or the write counter.
type MemPager struct {
	pageSize int

	mu    sync.Mutex
	pages [][]byte
	// Writes counts Write calls, so tests can assert write amplification.
	// Read it only while no other goroutine is using the pager.
	Writes int
}

// NewMemPager returns a MemPager with n pages of the given size.
func NewMemPager(pageSize, n int) *MemPager {
	return &MemPager{pageSize: pageSize, pages: make([][]byte, n)}
}

// PageSize implements Pager.
func (p *MemPager) PageSize() int { return p.pageSize }

// NumPages implements Pager.
func (p *MemPager) NumPages() int { return len(p.pages) }

// Read implements Pager.
func (p *MemPager) Read(id uint32) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return nil, fmt.Errorf("btree: page %d out of range", id)
	}
	if p.pages[id] == nil {
		p.pages[id] = make([]byte, p.pageSize)
	}
	return p.pages[id], nil
}

// Write implements Pager.
func (p *MemPager) Write(id uint32, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return fmt.Errorf("btree: page %d out of range", id)
	}
	if len(data) != p.pageSize {
		return fmt.Errorf("btree: write of %d bytes to %d-byte page", len(data), p.pageSize)
	}
	if p.pages[id] == nil {
		p.pages[id] = make([]byte, p.pageSize)
	}
	copy(p.pages[id], data)
	p.Writes++
	return nil
}
