package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Meta page layout (page 0). Bytes 10..15 are reserved for the storage
// layer on every page kind (the FSD cache stamps a CRC there), so the meta
// fields sit past them:
//
//	0       kind = meta
//	16..19  magic
//	20..23  root page id
//	24..27  height (1 = root is a leaf)
//	28..31  nextFresh: first never-allocated page id
//	32..35  reserved, written as zero; Open refuses a page where they are not
//
// The tree frees no page (Delete leaves an emptied leaf in the chain), so
// pages are allocated by the high-water mark nextFresh alone.
const (
	metaMagic = 0xCEDA12F5

	offMagic     = 16
	offRoot      = 20
	offHeight    = 24
	offNextFresh = 28
	offReserved  = 32
)

// Tree is a B+tree over a Pager. Keys and values are arbitrary byte strings;
// keys are ordered lexicographically. The zero Tree is not usable; obtain
// one from Create or Open.
//
// Concurrency: readers (Get, Scan, Len, Check, LeafChain) take mu
// for reading and may run in parallel; mutators (Put, Delete) take it
// exclusively. The lock also covers the Pager calls the tree makes, so a
// Pager shared only through its Tree needs no locking of its own.
type Tree struct {
	p Pager

	mu        sync.RWMutex
	root      uint32
	height    uint32
	nextFresh uint32
}

// MaxCell returns the largest key+value payload a tree over pages of size ps
// accepts. Three maximal cells must fit in a page so splits always succeed.
func MaxCell(ps int) int { return (ps - hdrSize - 3*slotSize) / 3 }

// Fits reports whether Put accepts a key of keyLen bytes with a value of
// valueLen bytes in a tree over pages of size ps, for callers that must know
// before they commit to the update.
func Fits(ps, keyLen, valueLen int) bool { return leafCellLen(keyLen, valueLen) <= MaxCell(ps) }

// Create initializes an empty tree in the pager, overwriting pages 0 and 1.
func Create(p Pager) (*Tree, error) {
	if p.NumPages() < 2 {
		return nil, fmt.Errorf("btree: pager has %d pages, need at least 2", p.NumPages())
	}
	t := &Tree{p: p, root: 1, height: 1, nextFresh: 2}
	rootLeaf := newNode(1, p.PageSize(), kindLeaf)
	if err := p.Write(1, rootLeaf.data); err != nil {
		return nil, err
	}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree. It fails with ErrCorrupt if the meta
// page does not carry the expected magic or its fields are implausible —
// the cue for a scavenge.
func Open(p Pager) (*Tree, error) {
	buf, err := p.Read(0)
	if err != nil {
		return nil, err
	}
	if buf[offKind] != kindMeta || binary.BigEndian.Uint32(buf[offMagic:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta page", ErrCorrupt)
	}
	t := &Tree{
		p:         p,
		root:      binary.BigEndian.Uint32(buf[offRoot:]),
		height:    binary.BigEndian.Uint32(buf[offHeight:]),
		nextFresh: binary.BigEndian.Uint32(buf[offNextFresh:]),
	}
	if t.root == 0 || t.height == 0 || int(t.nextFresh) > p.NumPages() ||
		binary.BigEndian.Uint32(buf[offReserved:]) != 0 {
		return nil, fmt.Errorf("%w: implausible meta page", ErrCorrupt)
	}
	return t, nil
}

// Height returns the tree height (1 = the root is a leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.height)
}

// Pager returns the underlying pager.
func (t *Tree) Pager() Pager { return t.p }

// AllocatedPages returns the number of pages the tree uses, the meta page
// included: every page below the high-water mark, since the tree frees none.
func (t *Tree) AllocatedPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.nextFresh)
}

func (t *Tree) writeMeta() error {
	buf := make([]byte, t.p.PageSize())
	buf[offKind] = kindMeta
	binary.BigEndian.PutUint32(buf[offMagic:], metaMagic)
	binary.BigEndian.PutUint32(buf[offRoot:], t.root)
	binary.BigEndian.PutUint32(buf[offHeight:], t.height)
	binary.BigEndian.PutUint32(buf[offNextFresh:], t.nextFresh)
	return t.p.Write(0, buf)
}

// view wraps the pager's own copy of page id as a node, without copying.
// Every read-only walk uses views: the page stays unchanged for as long as
// the tree lock is held (see Pager.Read), and a view is never written to.
func (t *Tree) view(id uint32) (node, error) {
	buf, err := t.p.Read(id)
	if err != nil {
		return node{}, err
	}
	return node{id: id, data: buf}, nil
}

// load reads page id into a private copy: the node a mutation is about to
// change.
func (t *Tree) load(id uint32) (node, error) {
	n, err := t.view(id)
	if err != nil {
		return node{}, err
	}
	return n.clone(), nil
}

// store hands n's buffer to the pager, which may keep it (see Pager.Write):
// n must not be touched afterwards.
func (t *Tree) store(n node) error { return t.p.Write(n.id, n.data) }

// alloc returns a fresh page id: the high-water mark.
func (t *Tree) alloc() (uint32, error) {
	if int(t.nextFresh) >= t.p.NumPages() {
		return 0, ErrFull
	}
	id := t.nextFresh
	t.nextFresh++
	return id, nil
}

// pathEl records one step of a root-to-leaf descent: the page visited and
// the slot index taken (-1 means the leftmost child).
type pathEl struct {
	id  uint32
	idx int
}

// descend walks from the root to the leaf responsible for key and returns a
// view of it. A mutation that may split passes path to collect the internal
// pages visited; read-only walks pass nil and record nothing.
func (t *Tree) descend(key []byte, path *[]pathEl) (node, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.view(id)
		if err != nil {
			return node{}, err
		}
		if n.kind() != kindInternal {
			return node{}, fmt.Errorf("%w: page %d expected internal", ErrCorrupt, id)
		}
		idx, _ := n.search(key)
		if path != nil {
			*path = append(*path, pathEl{id: id, idx: idx})
		}
		if idx < 0 {
			id = n.link()
		} else {
			id = n.child(idx)
		}
		if id == 0 {
			return node{}, fmt.Errorf("%w: nil child under page %d", ErrCorrupt, n.id)
		}
	}
	leaf, err := t.view(id)
	if err != nil {
		return node{}, err
	}
	if leaf.kind() != kindLeaf {
		return node{}, fmt.Errorf("%w: page %d expected leaf", ErrCorrupt, id)
	}
	return leaf, nil
}

// Get returns a copy of the value stored under key, or ErrNotFound.
func (t *Tree) Get(key []byte) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, err := t.descend(key, nil)
	if err != nil {
		return nil, err
	}
	idx, found := leaf.search(key)
	if !found {
		return nil, ErrNotFound
	}
	// The leaf is the pager's page: the value is the one thing copied out.
	return append([]byte(nil), leaf.value(idx)...), nil
}

// Put inserts or replaces the value under key.
func (t *Tree) Put(key, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	if !Fits(t.p.PageSize(), len(key), len(value)) {
		return ErrTooLarge
	}
	// The internal levels are walked in place; only the leaf, which is
	// about to change, is copied. A tree deeper than pathBuf (name tables
	// are three or four levels) merely makes the append allocate.
	var pathBuf [8]pathEl
	path := pathBuf[:0]
	leaf, err := t.descend(key, &path)
	if err != nil {
		return err
	}
	leaf = leaf.clone()
	idx, found := leaf.search(key)
	if found {
		leaf.deleteSlot(idx)
	}
	if leaf.ensureSpace(leafCellSize(key, value)) {
		leaf.insertLeafCell(idx, key, value)
		return t.store(leaf)
	}
	cells := leafCells(leaf, idx, key, value)
	if len(path) > 0 {
		shared, err := t.shareLeaf(path[len(path)-1], leaf, cells)
		if shared || err != nil {
			return err
		}
	}
	return t.splitLeaf(path, leaf, cells)
}

// kvPair is a leaf cell gathered for a share or a split; k and v alias the
// page (or the caller's arguments) they came from.
type kvPair struct{ k, v []byte }

// leafCells gathers leaf's cells in key order with (key, value) inserted at
// slot idx. leaf is the caller's private copy and is only read, so the
// gathered cells alias it.
func leafCells(leaf node, idx int, key, value []byte) []kvPair {
	cells := make([]kvPair, 0, leaf.nslots()+1)
	for i := 0; i < leaf.nslots(); i++ {
		if i == idx {
			cells = append(cells, kvPair{k: key, v: value})
		}
		cells = append(cells, kvPair{k: leaf.key(i), v: leaf.value(i)})
	}
	if idx == leaf.nslots() {
		cells = append(cells, kvPair{k: key, v: value})
	}
	return cells
}

// shareNum/shareDen is the share rule's bound (B*-style, Comer 1979): a
// full leaf spreads its cells over itself and a sibling instead of splitting
// when the two pages hold them within 7/8 of their space, so each is left
// with room for about an eighth of a page more before the next overflow.
const shareNum, shareDen = 7, 8

// shareLeaf spreads cells — a full leaf's, the new one among them — over
// the leaf and a sibling under the same parent, the right sibling first,
// then the left, and replaces the parent's separator between the two with
// the right page's first key. It allocates no page. It reports false, having
// written nothing, when neither sibling passes the share rule or the parent
// has no room for the new separator; the caller then splits.
func (t *Tree) shareLeaf(up pathEl, leaf node, cells []kvPair) (bool, error) {
	parent, err := t.view(up.id)
	if err != nil {
		return false, err
	}
	space := t.p.PageSize() - hdrSize
	// The separator between children i and i+1 is slot i+1; child -1 is
	// the parent's link.
	childAt := func(i int) uint32 {
		if i < 0 {
			return parent.link()
		}
		return parent.child(i)
	}
	for _, right := range []bool{true, false} {
		sepSlot, sibIdx := up.idx+1, up.idx+1
		if !right {
			sepSlot, sibIdx = up.idx, up.idx-1
		}
		if sepSlot < 0 || sepSlot >= parent.nslots() {
			continue
		}
		sib, err := t.view(childAt(sibIdx))
		if err != nil {
			return false, err
		}
		if sib.kind() != kindLeaf {
			return false, fmt.Errorf("%w: page %d expected leaf", ErrCorrupt, sib.id)
		}
		sibCells := make([]kvPair, sib.nslots())
		for i := range sibCells {
			sibCells[i] = kvPair{k: sib.key(i), v: sib.value(i)}
		}
		all, leftID, rightID, rightLink := slices.Concat(cells, sibCells), leaf.id, sib.id, sib.link()
		if !right {
			all, leftID, rightID, rightLink = slices.Concat(sibCells, cells), sib.id, leaf.id, leaf.link()
		}
		at, ok := shareSplit(all, space)
		if !ok {
			continue
		}
		p := parent.clone()
		p.deleteSlot(sepSlot)
		if !p.ensureSpace(internalCellSize(all[at].k)) {
			continue
		}
		p.insertInternalCell(sepSlot, all[at].k, rightID)
		left := newNode(leftID, t.p.PageSize(), kindLeaf)
		rn := newNode(rightID, t.p.PageSize(), kindLeaf)
		for i, c := range all[:at] {
			left.insertLeafCell(i, c.k, c.v)
		}
		for i, c := range all[at:] {
			rn.insertLeafCell(i, c.k, c.v)
		}
		left.setLink(rightID)
		rn.setLink(rightLink)
		// Every page is built before the first store, which may reuse the
		// memory the sibling's cells alias; the stores keep a split's order:
		// right page, left page, parent.
		if err := t.store(rn); err != nil {
			return false, err
		}
		if err := t.store(left); err != nil {
			return false, err
		}
		return true, t.store(p)
	}
	return false, nil
}

// shareSplit divides cells between two pages of space bytes each, by bytes:
// the left page takes cells[:at]. It reports false when the cells (with
// their slots) exceed the share rule's bound, or no division fits both
// pages.
func shareSplit(cells []kvPair, space int) (at int, ok bool) {
	total := 0
	for _, c := range cells {
		total += leafCellSize(c.k, c.v) + slotSize
	}
	if total*shareDen > shareNum*2*space {
		return 0, false
	}
	left := 0
	for i, c := range cells {
		size := leafCellSize(c.k, c.v) + slotSize
		if 2*(left+size) < total {
			left += size
			continue
		}
		// cells[i] straddles the middle. It goes to whichever page that
		// leaves the emptier fuller page, provided both pages hold their
		// share.
		best := 0
		for _, cut := range [2][2]int{{i, left}, {i + 1, left + size}} {
			fuller := max(cut[1], total-cut[1])
			if cut[0] >= 1 && cut[0] < len(cells) && fuller <= space && (best == 0 || fuller < best) {
				at, best = cut[0], fuller
			}
		}
		return at, best > 0
	}
	return 0, false
}

// splitLeaf repacks cells — a full leaf's, the new one among them — into
// the leaf and a fresh right page, and propagates the new separator up the
// path.
func (t *Tree) splitLeaf(path []pathEl, leaf node, cells []kvPair) error {
	total := 0
	for _, c := range cells {
		total += leafCellSize(c.k, c.v)
	}
	// Choose the split so the left page holds about half the bytes.
	splitAt, acc := 0, 0
	for i, c := range cells {
		acc += leafCellSize(c.k, c.v)
		if acc >= total/2 {
			splitAt = i + 1
			break
		}
	}
	if splitAt == 0 || splitAt >= len(cells) {
		splitAt = len(cells) / 2
		if splitAt == 0 {
			splitAt = 1
		}
	}
	rightID, err := t.alloc()
	if err != nil {
		return err
	}
	left := newNode(leaf.id, t.p.PageSize(), kindLeaf)
	right := newNode(rightID, t.p.PageSize(), kindLeaf)
	for i, c := range cells[:splitAt] {
		left.insertLeafCell(i, c.k, c.v)
	}
	for i, c := range cells[splitAt:] {
		right.insertLeafCell(i, c.k, c.v)
	}
	right.setLink(leaf.link())
	left.setLink(rightID)
	// Taken before the stores: a stored page belongs to the pager.
	sep := cells[splitAt].k
	// Write the new right page before the left page that points at it;
	// under a non-atomic pager a crash between the two leaves garbage
	// rather than a dangling pointer. (Under FSD's logged pager the order
	// is moot: each Write stages its own log images, but the operation
	// doing the Put holds one WAL group across all of them, so no force —
	// and no crash — can take the pages of a split apart.)
	if err := t.store(right); err != nil {
		return err
	}
	if err := t.store(left); err != nil {
		return err
	}
	if err := t.insertSeparator(path, sep, rightID); err != nil {
		return err
	}
	return t.writeMeta()
}

// icell is an internal cell gathered for a split; k aliases the page it
// came from.
type icell struct {
	k     []byte
	child uint32
}

// insertSeparator inserts (sep -> right) into the deepest node of path,
// splitting upward as needed. It updates t.root/t.height when the root
// splits; the caller writes the meta page.
func (t *Tree) insertSeparator(path []pathEl, sep []byte, right uint32) error {
	for level := len(path) - 1; level >= 0; level-- {
		n, err := t.load(path[level].id)
		if err != nil {
			return err
		}
		idx, _ := n.search(sep)
		at := idx + 1 // first slot with key > sep
		if n.ensureSpace(internalCellSize(sep)) {
			n.insertInternalCell(at, sep, right)
			return t.store(n)
		}
		// Split the internal node: gather cells, insert, promote middle.
		cells := make([]icell, 0, n.nslots()+1)
		for i := 0; i < n.nslots(); i++ {
			if i == at {
				cells = append(cells, icell{k: sep, child: right})
			}
			cells = append(cells, icell{k: n.key(i), child: n.child(i)})
		}
		if at == n.nslots() {
			cells = append(cells, icell{k: sep, child: right})
		}
		mid := len(cells) / 2
		rightID, err := t.alloc()
		if err != nil {
			return err
		}
		left := newNode(n.id, t.p.PageSize(), kindInternal)
		left.setLink(n.link())
		for i, c := range cells[:mid] {
			left.insertInternalCell(i, c.k, c.child)
		}
		rn := newNode(rightID, t.p.PageSize(), kindInternal)
		rn.setLink(cells[mid].child)
		for i, c := range cells[mid+1:] {
			rn.insertInternalCell(i, c.k, c.child)
		}
		if err := t.store(rn); err != nil {
			return err
		}
		if err := t.store(left); err != nil {
			return err
		}
		// cells alias n, the private copy that was never stored.
		sep = cells[mid].k
		right = rightID
	}
	// The root itself split: grow the tree.
	newRootID, err := t.alloc()
	if err != nil {
		return err
	}
	nr := newNode(newRootID, t.p.PageSize(), kindInternal)
	nr.setLink(t.root)
	nr.insertInternalCell(0, sep, right)
	if err := t.store(nr); err != nil {
		return err
	}
	t.root = newRootID
	t.height++
	return nil
}

// Delete removes key. Underfull pages are not rebalanced (deletion is lazy,
// as in many production trees); a leaf that empties completely is left in
// the chain and skipped by scans.
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, err := t.descend(key, nil)
	if err != nil {
		return err
	}
	idx, found := leaf.search(key)
	if !found {
		return ErrNotFound
	}
	leaf = leaf.clone()
	leaf.deleteSlot(idx)
	return t.store(leaf)
}

// Scan calls fn for every entry with key >= start in ascending order until
// fn returns false or the tree is exhausted. The key and value slices are
// the pager's own page: valid only during the callback, and read-only.
func (t *Tree) Scan(start []byte, fn func(key, value []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.scan(start, fn)
}

// scan is Scan's body; the caller holds mu (either mode).
func (t *Tree) scan(start []byte, fn func(key, value []byte) bool) error {
	leaf, err := t.descend(start, nil)
	if err != nil {
		return err
	}
	idx, _ := leaf.search(start)
	for {
		for ; idx < leaf.nslots(); idx++ {
			if !fn(leaf.key(idx), leaf.value(idx)) {
				return nil
			}
		}
		next := leaf.link()
		if next == 0 {
			return nil
		}
		leaf, err = t.view(next)
		if err != nil {
			return err
		}
		if leaf.kind() != kindLeaf {
			return fmt.Errorf("%w: leaf chain reached non-leaf page %d", ErrCorrupt, leaf.id)
		}
		idx = 0
	}
}

// Len counts the entries by scanning; it is O(n) and intended for tests and
// tools.
func (t *Tree) Len() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	err := t.scan(nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Check walks the entire tree verifying structural invariants: node kinds,
// key ordering within and across pages, uniform leaf depth, and leaf-chain
// consistency. It is the corruption detector used after crash tests.
func (t *Tree) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var firstLeaf uint32
	var prevKey []byte
	var walk func(id uint32, depth uint32, lo, hi []byte) error
	walk = func(id uint32, depth uint32, lo, hi []byte) error {
		n, err := t.view(id)
		if err != nil {
			return err
		}
		if err := n.validate(); err != nil {
			return err
		}
		if depth == t.height {
			if !n.isLeaf() {
				return fmt.Errorf("%w: page %d at leaf depth is internal", ErrCorrupt, id)
			}
			if firstLeaf == 0 {
				firstLeaf = id
			}
			for i := 0; i < n.nslots(); i++ {
				k := n.key(i)
				if lo != nil && bytes.Compare(k, lo) < 0 {
					return fmt.Errorf("%w: page %d key below separator", ErrCorrupt, id)
				}
				if hi != nil && bytes.Compare(k, hi) >= 0 {
					return fmt.Errorf("%w: page %d key above separator", ErrCorrupt, id)
				}
				if prevKey != nil && bytes.Compare(prevKey, k) >= 0 {
					return fmt.Errorf("%w: global key order violated at page %d", ErrCorrupt, id)
				}
				prevKey = k
			}
			return nil
		}
		if n.isLeaf() {
			return fmt.Errorf("%w: page %d is a leaf above leaf depth", ErrCorrupt, id)
		}
		childLo := lo
		for i := -1; i < n.nslots(); i++ {
			var cid uint32
			var childHi []byte
			if i < 0 {
				cid = n.link()
			} else {
				cid = n.child(i)
				childLo = n.key(i)
			}
			if i+1 < n.nslots() {
				childHi = n.key(i + 1)
			} else {
				childHi = hi
			}
			if i < 0 && n.nslots() > 0 {
				childHi = n.key(0)
			}
			if err := walk(cid, depth+1, childLo, childHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	return nil
}
