package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/wal"
)

// ntCRCOff is where the cache stamps a CRC32 into each name-table page; the
// B-tree reserves bytes 10..15 of its header for the storage layer.
const ntCRCOff = 12

// ntPage is one cached name-table page and its logging state. What the
// page's sectors have in the log is the log's own record (its thirds table,
// Log.Logged), not the cache's.
type ntPage struct {
	id  uint32
	cur []byte // current contents (what the B-tree sees)
	// pendingSeq is the newest log batch holding images staged from this
	// page; the page has undurable staged updates while pendingSeq
	// exceeds the log's committed sequence. (A boolean cannot express
	// this under the pipelined commit: images stage into a batch while
	// an older batch's force is still writing.)
	pendingSeq uint64
	lruSeq     uint64
}

// pendingLog reports whether the page has staged images not yet durable,
// given the log's current committed sequence.
func (p *ntPage) pendingLog(committed uint64) bool {
	return p.pendingSeq > committed
}

// ntCache is the write-back cache for file-name-table pages. It implements
// btree.Pager: B-tree reads hit the cache, B-tree writes dirty cached pages
// and stage their sector images for the next group commit. Pages are kept
// logically read-only between updates by CRC-checking on every cache read
// ("this is to catch wild stores").
//
// The cache locks internally: B-tree readers sharing the tree's read lock
// hit it concurrently, and the WAL's FlushHook (flushThird) enters from the
// force path while operations run. Page contents stay safe without copying
// because cur is replaced copy-on-write (only under the tree's write lock)
// and never mutated in place.
type ntCache struct {
	v   *Volume
	cap int

	mu    sync.Mutex
	pages map[uint32]*ntPage
	seq   uint64

	// Counters for the benchmarks. Atomic because c.mu is held across the
	// home-write disk I/O (flushThird): a Stats snapshot must never block
	// behind a flush in flight.
	hits, misses atomic.Int64
	homeWrites   atomic.Int64 // sectors, both copies counted
	homeWriteOps atomic.Int64 // disk requests that carried them

	// due, reqs and runBuf are the home-write paths' scratch, reused from
	// flush to flush: the images due, the requests they merge into (put in
	// issue order by issueByPosition) and the one request being assembled.
	// Touched only under mu.
	due    []ntImage
	reqs   []homeReq
	runBuf []byte
}

func newNTCache(v *Volume, capacity int) *ntCache {
	return &ntCache{
		v: v, pages: make(map[uint32]*ntPage), cap: capacity,
		runBuf: make([]byte, 0, MaxTransferSectors*disk.SectorSize),
	}
}

// stats snapshots the cache counters without taking c.mu.
func (c *ntCache) stats() CacheStats {
	return CacheStats{
		Hits:         int(c.hits.Load()),
		Misses:       int(c.misses.Load()),
		HomeWrites:   int(c.homeWrites.Load()),
		HomeWriteOps: int(c.homeWriteOps.Load()),
	}
}

// PageSize implements btree.Pager.
func (c *ntCache) PageSize() int { return NTPageSize }

// NumPages implements btree.Pager.
func (c *ntCache) NumPages() int { return c.v.lay.ntPages }

func stampCRC(p []byte) {
	binary.BigEndian.PutUint32(p[ntCRCOff:], 0)
	binary.BigEndian.PutUint32(p[ntCRCOff:], pageCRC(p))
}

// pageCRC is the IEEE CRC of the page with its CRC field read as zero.
func pageCRC(p []byte) uint32 {
	var z [4]byte
	crc := crc32.Update(0, crc32.IEEETable, p[:ntCRCOff])
	crc = crc32.Update(crc, crc32.IEEETable, z[:])
	return crc32.Update(crc, crc32.IEEETable, p[ntCRCOff+4:])
}

func crcOK(p []byte) bool {
	return binary.BigEndian.Uint32(p[ntCRCOff:]) == pageCRC(p)
}

// Read implements btree.Pager. On a miss both home copies are read and
// checked, per the paper ("when a page is read, both copies are read and
// checked"): copy A, then at once copy B, whose skew (copyBSkew) has its
// first sector arrive under the head as the seek from copy A ends. A
// single-copy volume reads its one copy. Each copy is read once, with its
// in-place retries: a sector that stays unreadable has had its chance, and
// reading the pair again would put every healthy sector of it through the
// fault model a second time (DESIGN §14).
func (c *ntCache) Read(id uint32) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pages[id]; ok {
		c.hits.Add(1)
		c.v.trace(obs.Event{Kind: obs.EvCacheHit, OK: true, A: int64(id)})
		c.seq++
		p.lruSeq = c.seq
		// The tree walks p.cur in place (btree.Pager lends pages), so this
		// check is also what catches a caller writing through a view.
		if !crcOK(p.cur) && !isVirgin(p.cur) {
			return nil, fmt.Errorf("core: wild store detected in cached name-table page %d", id)
		}
		return p.cur, nil
	}
	c.misses.Add(1)
	c.v.trace(obs.Event{Kind: obs.EvCacheMiss, OK: true, A: int64(id)})
	addrA, addrB := c.v.lay.ntPageAddrs(id)
	bufA, errA := c.v.readSectorsRetry(addrA, NTPageSectors)
	// The mount's overlay of the log's replayed sector images (a read-only
	// mount's never go home) goes on before the CRC check: the mix of stale
	// home sectors and replayed sectors is exactly the page applyNTImages
	// would have produced on disk.
	data := c.v.overlayNT(id, bufA)
	if data != nil && !crcOK(data) && !isVirgin(data) {
		data = nil
	}
	if c.v.twoCopies() {
		bufB, _ := c.v.readSectorsRetry(addrB, NTPageSectors)
		if bufB = c.v.overlayNT(id, bufB); data == nil && bufB != nil && (crcOK(bufB) || isVirgin(bufB)) {
			data = bufB
		}
		c.v.cpu.Charge(2 * csumCost)
	} else {
		c.v.cpu.Charge(csumCost)
	}
	if data == nil {
		// %w: a device fault on copy A stays visible to errors.Is and
		// errors.As.
		if errA == nil {
			errA = errors.New("checksum mismatch")
		}
		return nil, fmt.Errorf("core: name-table page %d unreadable in all copies (A: %w)", id, errA)
	}
	// The page enters the tree here, checked once: a malformed one is an
	// error for the caller, never a panic in the tree's walk.
	if err := btree.CheckPage(id, data); err != nil {
		return nil, fmt.Errorf("core: name-table page %d: %w", id, err)
	}
	p := &ntPage{id: id, cur: data}
	c.insert(p)
	return p.cur, nil
}

// admit caches a page the mount-time region sweep read and verified, exactly
// as the miss that would otherwise have fetched it: counted, traced, and
// subject to the same eviction. A page already cached is left alone, and a
// malformed one out: the miss that meets it reports it (Read).
func (c *ntCache) admit(id uint32, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pages[id]; ok || btree.CheckPage(id, data) != nil {
		return
	}
	c.misses.Add(1)
	c.v.trace(obs.Event{Kind: obs.EvCacheMiss, OK: true, A: int64(id)})
	c.insert(&ntPage{id: id, cur: data})
}

// ntOverlay returns the replayed name-table sector images the mount has
// published, or nil.
func (v *Volume) ntOverlay() map[uint64][]byte {
	if p := v.ntOverride.Load(); p != nil {
		return *p
	}
	return nil
}

// setOverlay publishes imgs as the overlay; nil withdraws it.
func (v *Volume) setOverlay(imgs map[uint64][]byte) { v.ntOverride.Store(&imgs) }

// overlayNT applies the in-memory replayed sector images of page id (the
// mount's overlay, ntOverlay) over a home copy. buf may be nil for an
// unreadable home copy, in which case the page is reconstructed only when the
// overlay covers all of it. It returns buf unchanged when there is nothing to
// apply.
func (v *Volume) overlayNT(id uint32, buf []byte) []byte {
	over := v.ntOverlay()
	if over == nil {
		return buf
	}
	var imgs [NTPageSectors][]byte
	n := 0
	for j := 0; j < NTPageSectors; j++ {
		if img, ok := over[uint64(id)*NTPageSectors+uint64(j)]; ok {
			imgs[j] = img
			n++
		}
	}
	if n == 0 || (buf == nil && n < NTPageSectors) {
		return buf
	}
	out := make([]byte, NTPageSize)
	if buf != nil {
		copy(out, buf)
	}
	for j, img := range imgs {
		if img != nil {
			copy(out[j*disk.SectorSize:(j+1)*disk.SectorSize], img)
		}
	}
	return out
}

// isVirgin reports an all-zero page (never written; CRC field legitimately
// absent).
func isVirgin(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Write implements btree.Pager: update the cached page and stage images of
// the changed sectors for the next group commit. Logging is sector-granular
// — the paper logs 512-byte "physical pages", so a small property update
// inside a 2 KB name-table page produces a one- or two-page log record, not
// four. Nothing touches the home copies here. The cache keeps data as the
// page (btree.Pager.Write gives the buffer away): it is stamped here and
// never written again, so readers borrowing it and the log images cut from
// it stay valid without a copy.
func (c *ntCache) Write(id uint32, fresh []byte) error {
	if len(fresh) != NTPageSize {
		return fmt.Errorf("core: name-table write of %d bytes", len(fresh))
	}
	if c.v.log == nil {
		// Read-only mount: mutations are refused far above this, so a
		// write reaching the pager is a bug, not a user error.
		return fmt.Errorf("core: name-table write on read-only volume")
	}
	c.mu.Lock()
	p, ok := c.pages[id]
	if !ok {
		// Cache miss on write: the diff base is unknown. The page may
		// be virgin (all zeroes at home) — or it may have been written
		// before and evicted, in which case its home content is
		// arbitrary. Diffing against zeroes in the latter case would
		// skip sectors that are zero in the new image but stale and
		// nonzero at home, leaving the home copy a mix of old and new
		// sectors under the new CRC — unreadable in both copies. So on
		// a miss every sector is staged unconditionally (ok==false
		// disables the equal-sector skip below).
		p = &ntPage{id: id, cur: make([]byte, NTPageSize)}
		c.insert(p)
	}
	stampCRC(fresh)
	c.v.cpu.Charge(csumCost)
	var images []wal.PageImage
	for j := 0; j < NTPageSectors; j++ {
		lo, hi := j*disk.SectorSize, (j+1)*disk.SectorSize
		if ok && bytes.Equal(fresh[lo:hi], p.cur[lo:hi]) {
			continue
		}
		images = append(images, wal.PageImage{
			Kind:   wal.KindNameTable,
			Target: uint64(id)*NTPageSectors + uint64(j),
			Data:   fresh[lo:hi],
		})
	}
	p.cur = fresh
	if len(images) == 0 {
		c.mu.Unlock()
		return nil
	}
	// The page is pending from the moment cur holds bytes the log has not
	// got: until Append names the batch, no clean test may pass.
	p.pendingSeq = math.MaxUint64
	c.mu.Unlock()
	// Append outside c.mu: it may force (the synchronous mode, or a batch
	// grown longer than a third), and the force's FlushHook re-enters the
	// cache. Callers are serialized by the B-tree's write lock, so releasing
	// here admits no second writer.
	seq, err := c.v.log.Append(images...)
	if seq != 0 {
		// Also when the force Append made failed: that put the batch
		// back, for a later force to commit.
		c.mu.Lock()
		p.pendingSeq = seq
		c.mu.Unlock()
	}
	return err
}

// clean reports whether p's home copies hold p.cur: nothing staged from it
// is still to commit, and the log's table holds none of its sectors (each
// committed image has gone home). A read-only mount has no log, and every
// page is clean. The caller holds c.mu.
func (c *ntCache) clean(p *ntPage, committed uint64) bool {
	if c.v.log == nil {
		return true
	}
	if p.pendingLog(committed) {
		return false
	}
	for j := range uint64(NTPageSectors) {
		if c.v.log.Logged(wal.KindNameTable, uint64(p.id)*NTPageSectors+j) {
			return false
		}
	}
	return true
}

// insert adds a page, evicting a clean page if over capacity. Pages that are
// not clean are never evicted ("the 'dirty but logged' pages are kept in the
// cache"); if none is clean the cache grows past cap. The caller holds c.mu.
func (c *ntCache) insert(p *ntPage) {
	c.seq++
	p.lruSeq = c.seq
	c.pages[p.id] = p
	if len(c.pages) <= c.cap {
		return
	}
	// A read-only mount has no log and therefore nothing pending.
	var committed uint64
	if c.v.log != nil {
		committed = c.v.log.Committed()
	}
	var victim *ntPage
	for _, q := range c.pages {
		// Only a page older than the best so far is asked whether it is
		// clean: the test may ask the log about each of its sectors.
		if q != p && (victim == nil || q.lruSeq < victim.lruSeq) && c.clean(q, committed) {
			victim = q
		}
	}
	if victim != nil {
		delete(c.pages, victim.id)
	}
}

// flushThird writes home the name-table sectors among due, the committed
// images the log hands its FlushHook at a third crossing or a checkpoint
// (Log.Due) — never the possibly newer cache contents, so the home copies
// never reflect updates the log has not yet committed. They go out as one
// writeNTHome sweep; the log keeps them in its table until the sweep has
// succeeded, so a failed flush is redone whole by the next crossing.
func (c *ntCache) flushThird(due []wal.PageImage) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.due = c.due[:0]
	for _, im := range due {
		if im.Kind == wal.KindNameTable {
			c.due = append(c.due, ntImage{first: im.Target, data: im.Data})
		}
	}
	if err := c.writeDue(); err != nil {
		return 0, err
	}
	return len(c.due), nil
}

// writeDue sweeps c.due home and counts what went out. The caller holds
// c.mu, which is what makes the scratch safe to reuse.
func (c *ntCache) writeDue() error {
	slices.SortFunc(c.due, func(a, b ntImage) int { return cmp.Compare(a.first, b.first) })
	ios, sectors, err := c.writeNTHome(c.due)
	clear(c.due) // keeps its length; drops the page buffers it pinned
	c.homeWriteOps.Add(int64(ios))
	c.homeWrites.Add(int64(sectors))
	return err
}

// ntImage is a run of whole name-table sectors bound for home. first is the
// offset of its first sector into a copy — the WAL's KindNameTable target.
type ntImage struct {
	first uint64
	data  []byte
}

// homeReq is one request issueByPosition orders: a home write of sectors
// from addr on, carrying the images [lo, hi) of its sweep (writeNTHome) or the
// leader image due[lo] (flushLeaders), or the read of the leader refs[lo]
// (readLeaders). slot is issueByPosition's own: the request's disk.SlotAngle.
type homeReq struct {
	addr, lo, hi int
	slot         time.Duration
}

// writeNTHome is the one name-table home-write path: third-crossing flushes,
// checkpoints and the recovery redo all come through it, holding c.mu. imgs
// must be sorted by first and must not overlap. Physically adjacent images
// merge into requests of at most MaxTransferSectors, and every request goes
// to copy A before any goes to copy B, so the arm crosses the gap between
// the copies once per flush instead of once per sector; copy A of a sector
// still lands before its copy B (scrub's "A is the newer image" rule). Within a copy issueByPosition orders the requests: cylinders
// ascending, and inside one the request the head reaches soonest next. A
// merged request is assembled in runBuf just before it is issued. It returns
// the requests and sectors written; on an error the caller must treat every
// image as unwritten and redo the whole sweep.
func (c *ntCache) writeNTHome(imgs []ntImage) (ios, sectors int, err error) {
	bases := [2]int{c.v.lay.ntA, c.v.lay.ntB}
	copies := 1
	if c.v.twoCopies() {
		copies = 2
	}
	for _, base := range bases[:copies] {
		c.reqs = c.reqs[:0]
		for i := 0; i < len(imgs); {
			n, next := len(imgs[i].data), i+1
			for ; next < len(imgs); next++ {
				im := imgs[next]
				if im.first != imgs[i].first+uint64(n/disk.SectorSize) ||
					n+len(im.data) > MaxTransferSectors*disk.SectorSize {
					break
				}
				n += len(im.data)
			}
			c.reqs = append(c.reqs, homeReq{addr: base + int(imgs[i].first), lo: i, hi: next})
			i = next
		}
		err := c.v.issueByPosition(c.reqs, func(r homeReq) error {
			run := imgs[r.lo].data
			if r.hi > r.lo+1 {
				run = c.runBuf[:0]
				for _, im := range imgs[r.lo:r.hi] {
					run = append(run, im.data...)
				}
			}
			if err := c.v.writeSectors(r.addr, run); err != nil {
				return err
			}
			ios++
			sectors += len(run) / disk.SectorSize
			return nil
		})
		if err != nil {
			return ios, sectors, err
		}
	}
	return ios, sectors, nil
}

// issueByPosition issues reqs, sorted by cylinder, in the order that keeps a
// pass over them one sweep and spares it rotation: cylinder by cylinder in the
// order reqs come in (ascending for home writes and leader reads sorted by
// address; toward the log for the held pass, heldOrder), and inside a
// cylinder next the request the head reaches soonest (the earlier one on a
// tie), since inside a cylinder a track change costs nothing and a sector
// passed costs a revolution. Every request of a cylinder pays the same seek,
// so soonest is the least rotational wait: each request's slot angle is
// computed once, and each choice asks the disk once where the head will be
// (disk.ArrivalAngle) — the order disk.PositionTime gives, without a query
// per candidate. It is the one order for home writes and for a check pass's
// leader reads. It leaves reqs in issue order and stops at the first error.
func (v *Volume) issueByPosition(reqs []homeReq, issue func(homeReq) error) error {
	g, p := v.d.Geometry(), v.d.Params()
	for i := range reqs {
		reqs[i].slot = p.SlotAngle(g, reqs[i].addr)
	}
	for lo := 0; lo < len(reqs); {
		cyl, hi := g.Cylinder(reqs[lo].addr), lo+1
		for hi < len(reqs) && g.Cylinder(reqs[hi].addr) == cyl {
			hi++
		}
		for k := lo; k < hi; k++ {
			if k+1 < hi {
				at := v.d.ArrivalAngle(cyl)
				best, soonest := k, p.RotWait(at, reqs[k].slot)
				for j := k + 1; j < hi; j++ {
					if w := p.RotWait(at, reqs[j].slot); w < soonest {
						best, soonest = j, w
					}
				}
				r := reqs[best]
				copy(reqs[k+1:best+1], reqs[k:best])
				reqs[k] = r
			}
			if err := issue(reqs[k]); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// dropAll empties the cache (after crash recovery rewrites home pages).
func (c *ntCache) dropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pages = make(map[uint32]*ntPage)
}
