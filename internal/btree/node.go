package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Page layout. All integers are big-endian.
//
//	0      kind (1 = leaf, 2 = internal, 3 = meta)
//	1      unused
//	2..3   nslots
//	4..5   cellStart: lowest byte offset occupied by cell data
//	6..9   link: right sibling (leaf) or leftmost child (internal)
//	10..15 reserved
//	16..   slot array, one uint16 cell offset per slot, in key order
//
// Cells grow downward from the end of the page.
//
//	leaf cell:     klen u16 | vlen u16 | key | value
//	internal cell: klen u16 | child u32 | key
const (
	kindLeaf     = 1
	kindInternal = 2
	kindMeta     = 3

	hdrSize  = 16
	slotSize = 2

	offKind      = 0
	offNSlots    = 2
	offCellStart = 4
	offLink      = 6
)

// node wraps a page buffer with slotted-page accessors. The buffer is either
// the pager's own page (a view: read-only) or a private copy (clone, newNode)
// that a mutation changes and then stores.
type node struct {
	id   uint32
	data []byte
}

// clone returns n over a private copy of its page.
func (n node) clone() node {
	return node{id: n.id, data: append([]byte(nil), n.data...)}
}

func newNode(id uint32, size int, kind byte) node {
	d := make([]byte, size)
	d[offKind] = kind
	binary.BigEndian.PutUint16(d[offCellStart:], uint16(size))
	return node{id: id, data: d}
}

func (n node) kind() byte   { return n.data[offKind] }
func (n node) isLeaf() bool { return n.data[offKind] == kindLeaf }
func (n node) nslots() int  { return int(binary.BigEndian.Uint16(n.data[offNSlots:])) }
func (n node) cellStart() int {
	return int(binary.BigEndian.Uint16(n.data[offCellStart:]))
}
func (n node) link() uint32 { return binary.BigEndian.Uint32(n.data[offLink:]) }

func (n node) setNSlots(v int) { binary.BigEndian.PutUint16(n.data[offNSlots:], uint16(v)) }
func (n node) setCellStart(v int) {
	binary.BigEndian.PutUint16(n.data[offCellStart:], uint16(v))
}
func (n node) setLink(v uint32) { binary.BigEndian.PutUint32(n.data[offLink:], v) }

func (n node) slotOffset(i int) int {
	return int(binary.BigEndian.Uint16(n.data[hdrSize+i*slotSize:]))
}
func (n node) setSlotOffset(i, off int) {
	binary.BigEndian.PutUint16(n.data[hdrSize+i*slotSize:], uint16(off))
}

// key returns the key of slot i (aliasing the page buffer).
func (n node) key(i int) []byte {
	off := n.slotOffset(i)
	klen := int(binary.BigEndian.Uint16(n.data[off:]))
	if n.isLeaf() {
		return n.data[off+4 : off+4+klen]
	}
	return n.data[off+6 : off+6+klen]
}

// value returns the value of leaf slot i (aliasing the page buffer).
func (n node) value(i int) []byte {
	off := n.slotOffset(i)
	klen := int(binary.BigEndian.Uint16(n.data[off:]))
	vlen := int(binary.BigEndian.Uint16(n.data[off+2:]))
	return n.data[off+4+klen : off+4+klen+vlen]
}

// child returns the child page id of internal slot i.
func (n node) child(i int) uint32 {
	off := n.slotOffset(i)
	return binary.BigEndian.Uint32(n.data[off+2:])
}

// cellSize returns the total byte size of slot i's cell.
func (n node) cellSize(i int) int {
	off := n.slotOffset(i)
	klen := int(binary.BigEndian.Uint16(n.data[off:]))
	if n.isLeaf() {
		vlen := int(binary.BigEndian.Uint16(n.data[off+2:]))
		return 4 + klen + vlen
	}
	return 6 + klen
}

// leafCellSize returns the encoded size of a prospective leaf cell.
func leafCellSize(key, value []byte) int { return leafCellLen(len(key), len(value)) }

// leafCellLen is leafCellSize from the lengths alone.
func leafCellLen(keyLen, valueLen int) int { return 4 + keyLen + valueLen }

// internalCellSize returns the encoded size of a prospective internal cell.
func internalCellSize(key []byte) int { return 6 + len(key) }

// freeContiguous returns the bytes available between the slot array and the
// cell area.
func (n node) freeContiguous() int {
	return n.cellStart() - hdrSize - n.nslots()*slotSize
}

// liveBytes returns the total size of live cells.
func (n node) liveBytes() int {
	total := 0
	for i := 0; i < n.nslots(); i++ {
		total += n.cellSize(i)
	}
	return total
}

// freeTotal returns the bytes reclaimable by compaction plus contiguous free
// space.
func (n node) freeTotal() int {
	return len(n.data) - hdrSize - n.nslots()*slotSize - n.liveBytes()
}

// search finds the slot index for key. For leaves it returns (index, true)
// on an exact match or (insertion point, false). For internal nodes it
// returns the slot whose child should be descended into, or -1 meaning the
// leftmost child.
func (n node) search(key []byte) (int, bool) {
	lo, hi := 0, n.nslots()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.key(mid), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first slot with key > target.
	if n.isLeaf() {
		if lo > 0 && bytes.Equal(n.key(lo-1), key) {
			return lo - 1, true
		}
		return lo, false
	}
	return lo - 1, false // -1 selects the leftmost child
}

// insertLeafCell inserts (key, value) at slot index i. The caller must have
// verified fit via ensureSpace.
func (n node) insertLeafCell(i int, key, value []byte) {
	size := leafCellSize(key, value)
	off := n.cellStart() - size
	binary.BigEndian.PutUint16(n.data[off:], uint16(len(key)))
	binary.BigEndian.PutUint16(n.data[off+2:], uint16(len(value)))
	copy(n.data[off+4:], key)
	copy(n.data[off+4+len(key):], value)
	n.setCellStart(off)
	n.openSlot(i, off)
}

// insertInternalCell inserts (key, child) at slot index i.
func (n node) insertInternalCell(i int, key []byte, child uint32) {
	size := internalCellSize(key)
	off := n.cellStart() - size
	binary.BigEndian.PutUint16(n.data[off:], uint16(len(key)))
	binary.BigEndian.PutUint32(n.data[off+2:], child)
	copy(n.data[off+6:], key)
	n.setCellStart(off)
	n.openSlot(i, off)
}

// openSlot shifts the slot array to make room at index i, pointing it at off.
func (n node) openSlot(i, off int) {
	ns := n.nslots()
	copy(n.data[hdrSize+(i+1)*slotSize:hdrSize+(ns+1)*slotSize],
		n.data[hdrSize+i*slotSize:hdrSize+ns*slotSize])
	n.setSlotOffset(i, off)
	n.setNSlots(ns + 1)
}

// deleteSlot removes slot i; the cell bytes become garbage reclaimed by the
// next compaction.
func (n node) deleteSlot(i int) {
	ns := n.nslots()
	copy(n.data[hdrSize+i*slotSize:hdrSize+(ns-1)*slotSize],
		n.data[hdrSize+(i+1)*slotSize:hdrSize+ns*slotSize])
	n.setNSlots(ns - 1)
}

// compact rewrites the page, squeezing out garbage between cells.
func (n node) compact() {
	fresh := newNode(n.id, len(n.data), n.kind())
	fresh.setLink(n.link())
	for i := 0; i < n.nslots(); i++ {
		if n.isLeaf() {
			fresh.insertLeafCell(i, n.key(i), n.value(i))
		} else {
			fresh.insertInternalCell(i, n.key(i), n.child(i))
		}
	}
	copy(n.data, fresh.data)
}

// ensureSpace makes room for a cell of size bytes, compacting if necessary.
// It reports whether the cell fits at all.
func (n node) ensureSpace(size int) bool {
	if n.freeContiguous() >= size+slotSize {
		return true
	}
	if n.freeTotal() >= size+slotSize {
		n.compact()
		return true
	}
	return false
}

// validate performs the structural checks of a leaf or internal page: slot
// array and cell area inside the page and apart, every cell whole inside the
// page, keys strictly ascending. A page that passes can be walked by every
// accessor without an index going out of range.
func (n node) validate() error {
	if len(n.data) < hdrSize {
		return fmt.Errorf("%w: page %d is %d bytes", ErrCorrupt, n.id, len(n.data))
	}
	cellHdr := 6
	switch n.kind() {
	case kindLeaf:
		cellHdr = 4
	case kindInternal:
	default:
		return fmt.Errorf("%w: page %d has kind %d", ErrCorrupt, n.id, n.kind())
	}
	slotsEnd := hdrSize + n.nslots()*slotSize
	if slotsEnd > n.cellStart() || n.cellStart() > len(n.data) {
		return fmt.Errorf("%w: page %d slot array overlaps cells", ErrCorrupt, n.id)
	}
	for i := 0; i < n.nslots(); i++ {
		off := n.slotOffset(i)
		if off < slotsEnd || off+cellHdr > len(n.data) || off+n.cellSize(i) > len(n.data) {
			return fmt.Errorf("%w: page %d slot %d offset %d", ErrCorrupt, n.id, i, off)
		}
		if i > 0 && bytes.Compare(n.key(i-1), n.key(i)) >= 0 {
			return fmt.Errorf("%w: page %d keys out of order at slot %d", ErrCorrupt, n.id, i)
		}
	}
	return nil
}

// CheckPage validates page id as it enters a tree from a medium: a leaf or
// internal page must pass validate, so that no accessor can index outside
// it; a page of any other kind is checked by the walk that meets it, which
// expects a kind. It costs host time only. A pager over a medium calls it
// once per page, where the page enters its cache (LeafEntries, which
// decodes pages no pager holds, runs the same check), so that a malformed
// page is ErrCorrupt and not a panic.
func CheckPage(id uint32, page []byte) error {
	if len(page) > offKind && page[offKind] != kindLeaf && page[offKind] != kindInternal {
		return nil
	}
	return node{id: id, data: page}.validate()
}
