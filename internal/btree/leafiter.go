package btree

import "fmt"

// LeafChain returns, in chain order, the ids of the leaf pages reachable
// from the leftmost leaf. Pages are resolved through get instead of the
// pager: the caller has already read the table in device order (the
// mount-time region sweep) and the walk touches only memory. get returns
// nil for a page it does not hold; that, a page of the wrong kind, or a
// chain longer than pages (a cycle) is ErrCorrupt. A leaf no chain link
// reaches — a stale image of a page the tree no longer uses — is never
// listed, so it can contribute nothing to a rebuild.
func (t *Tree) LeafChain(pages int, get func(id uint32) []byte) ([]uint32, error) {
	t.mu.RLock()
	id, height := t.root, t.height
	t.mu.RUnlock()
	load := func(id uint32, kind byte) (node, error) {
		var buf []byte
		if id != 0 {
			buf = get(id)
		}
		if len(buf) < hdrSize || buf[offKind] != kind {
			return node{}, fmt.Errorf("%w: page %d missing or of the wrong kind in the leaf walk", ErrCorrupt, id)
		}
		return node{id: id, data: buf}, nil
	}
	for level := height; level > 1; level-- {
		n, err := load(id, kindInternal)
		if err != nil {
			return nil, err
		}
		id = n.link()
	}
	var chain []uint32
	for id != 0 {
		if len(chain) >= pages {
			return nil, fmt.Errorf("%w: leaf chain does not end", ErrCorrupt)
		}
		leaf, err := load(id, kindLeaf)
		if err != nil {
			return nil, err
		}
		chain = append(chain, id)
		id = leaf.link()
	}
	return chain, nil
}

// IsLeaf reports whether a page buffer holds a leaf: what LeafEntries
// accepts, for a caller sorting pages it has read itself.
func IsLeaf(page []byte) bool { return len(page) >= hdrSize && page[offKind] == kindLeaf }

// LeafEntries decodes the cells of a leaf page buffer in slot order. It
// touches only the buffer — no pager, no tree state — so any number of
// goroutines may decode different pages concurrently. The key and value
// slices alias the buffer. The page is validated first: a malformed one is
// ErrCorrupt, with fn never called.
func LeafEntries(page []byte, fn func(key, value []byte) bool) error {
	n := node{data: page}
	if !IsLeaf(page) {
		return fmt.Errorf("%w: LeafEntries on non-leaf page", ErrCorrupt)
	}
	if err := n.validate(); err != nil {
		return err
	}
	for i := 0; i < n.nslots(); i++ {
		if !fn(n.key(i), n.value(i)) {
			return nil
		}
	}
	return nil
}
