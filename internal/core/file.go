package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// MaxTransferSectors bounds a demand transfer — the sectors of one disk
// request that a caller asked for — as the real controller bounded a
// request; long reads and writes are issued in chunks of this many sectors.
const MaxTransferSectors = 64

// streamWindow bounds what a read request carries beyond that: the sectors a
// detected sequential reader has not asked for yet, read into data-cache
// frames by the request that serves its current chunk. See DESIGN §12 for
// the size.
const streamWindow = 128

// File is an open-file handle. Handles are invalidated by deleting the file;
// using a stale handle after the delete commits reads reallocated pages.
//
// A handle is safe for concurrent use: mu guards its entry snapshot and
// leader-verification flag, so operations on one handle serialize against
// each other while handles of different files (or even separate handles on
// the same file) proceed in parallel. Compound byte-level sequences
// (read-modify-write through ReadAt/WriteAt) are not transactional across
// concurrent users of the same handle.
type File struct {
	v *Volume

	mu             sync.Mutex
	e              Entry
	leaderVerified bool
	// hint is the data pages of the version below the one this handle's
	// create made, on a volume that holds writes and for an empty create; 0
	// once the handle's first growth has used it (allocGrowth). It is
	// guarded by vmMu, and sits in leaderVerified's padding: every open
	// allocates a handle, which stays in its 128-byte size class.
	hint int32
	// seqNext is the logical page after the last one read through this
	// handle (0 on a fresh one); readInto detects a sequential reader by it.
	seqNext int
}

// Entry returns a copy of the file's name-table entry as of open time.
func (f *File) Entry() Entry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e
}

// Size returns the file's byte size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(f.e.ByteSize)
}

// Pages returns the number of data pages.
func (f *File) Pages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e.Pages()
}

// lookup is what one walk over a name's versions finds (newestLocked).
type lookup struct {
	top   uint32   // the newest version; 0 if the name has none
	e     *Entry   // its entry, decoded from the value the walk found
	err   error    // why that value does not decode, when e is nil
	stale []*Entry // with trim: the versions e's keep count drops once a version is added above top
}

// newestLocked finds the newest version of name in one walk of the name
// table (DESIGN §13, "One walk per lookup"): a single scan over the name's
// versions, charged one CostBTreeOp, which decodes the newest entry from the
// value the scan itself found — no second descent to fetch it. With trim set
// it also resolves what a create must delete: the versions, decoded from the
// same walk, that the newest's keep count no longer covers once a version
// is added above it. The caller holds the monitor (either mode).
func (v *Volume) newestLocked(name string, trim bool) (l lookup, err error) {
	type seen struct {
		ver uint32
		val []byte
	}
	// The values are copied out of the pages, which stay put only while the
	// scan holds the tree's lock: the last one alone, or, with trim, every
	// one.
	var stash [128]byte
	var seen4 [4]seen
	buf, all := stash[:0], seen4[:0]
	err = v.nt.Scan(namePrefix(name), func(k, val []byte) bool {
		ver, ok := versionOf(k, name)
		if !ok {
			return false
		}
		if !trim {
			buf, all = buf[:0], all[:0]
		}
		at := len(buf)
		buf = append(buf, val...)
		all = append(all, seen{ver, buf[at:]})
		return true
	})
	v.cpu.Charge(sim.CostBTreeOp)
	if err != nil || len(all) == 0 {
		return l, err
	}
	last := all[len(all)-1]
	l.top = last.ver
	l.e, l.err = decodeEntry(name, last.ver, last.val)
	if trim && l.e != nil && l.e.Keep > 0 && uint32(l.e.Keep) <= l.top {
		cutoff := l.top + 1 - uint32(l.e.Keep)
		for _, s := range all {
			if s.ver > cutoff {
				break
			}
			if de, derr := decodeEntry(name, s.ver, s.val); derr == nil {
				l.stale = append(l.stale, de)
			}
		}
	}
	return l, nil
}

// statLocked fetches an entry; version 0 means newest. Either way it is one
// lookup, charged one CostBTreeOp: the newest through newestLocked's walk, a
// named version through the tree's Get. The caller holds the monitor (either
// mode).
func (v *Volume) statLocked(name string, version uint32) (*Entry, error) {
	if version == 0 {
		l, err := v.newestLocked(name, false)
		if err != nil {
			return nil, err
		}
		if l.top == 0 {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return l.e, l.err
	}
	val, err := v.nt.Get(entryKey(name, version))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: %q!%d", ErrNotFound, name, version)
	}
	if err != nil {
		return nil, err
	}
	v.cpu.Charge(sim.CostBTreeOp)
	return decodeEntry(name, version, val)
}

// Create makes a new version of name holding data and returns an open
// handle. The create costs one synchronous I/O in the common case: the
// combined write of the leader page and the data ("a file create typically
// does one I/O synchronously"). The name-table update is buffered and
// logged asynchronously by group commit.
func (v *Volume) Create(name string, data []byte) (*File, error) {
	return v.createClass(name, data, Local, "")
}

// CreateCached makes a new version of name marked as a cached copy of a
// remote file.
func (v *Volume) CreateCached(name string, data []byte) (*File, error) {
	return v.createClass(name, data, Cached, "")
}

// CreateLink makes a new version of name that is a symbolic link to a
// remote file name. Links occupy no data pages.
func (v *Volume) CreateLink(name, target string) (*Entry, error) {
	f, err := v.createClass(name, nil, SymLink, target)
	if err != nil {
		return nil, err
	}
	return &f.e, nil
}

func (v *Volume) createClass(name string, data []byte, class Class, linkTarget string) (*File, error) {
	var f *File
	err := v.mutate("create", nil, [2]string{name}, func(it *intent) (err error) {
		if err := ValidateName(name); err != nil {
			return err
		}
		// The newest version, its keep count and the versions that count
		// trims come from one walk.
		l, err := v.newestLocked(name, true)
		if err != nil {
			return err
		}
		var keep uint16
		if l.e != nil {
			keep = l.e.Keep
		}
		v.cpu.Charge(sim.CostFileCreate)
		e := &Entry{
			Name:       name,
			Version:    l.top + 1,
			Class:      class,
			Keep:       keep,
			UID:        v.nextUID(),
			ByteSize:   uint64(len(data)),
			CreateTime: v.clk.Now(),
			LastUsed:   v.clk.Now(),
			LinkTarget: linkTarget,
		}
		if class != SymLink {
			pages := 1 + (len(data)+disk.SectorSize-1)/disk.SectorSize // leader + data
			v.vmMu.Lock()
			e.Runs, err = v.placeCreate(pages, len(data) > 0)
			v.noteFresh(e.Runs)
			v.vmMu.Unlock()
			if err != nil {
				return err
			}
			// Nothing refers to the pages until the intent is handed off;
			// what the data write may have held goes with them.
			defer func() {
				if err != nil {
					v.invalidateData(e.Runs)
					v.freeNow(e.Runs)
				}
			}()
		}
		// Apply cannot refuse an entry (see entryFits): a link target or a
		// fragmented allocation too long for a cell fails here.
		if err := entryFits(e); err != nil {
			return err
		}
		// The data write stays on the caller, ahead of the entry: the pages
		// are on the platter, or held for the force's pass, before the
		// entry's images can stage — the order the force's data-before-record
		// barrier assumes — and a write that fails leaves no entry over pages
		// that were never written.
		if len(data) > 0 {
			if err := v.writeLeaderAndData(e, encodeLeader(e), data); err != nil {
				return err
			}
		}
		it.put(e)
		if len(data) == 0 {
			// Empty file: the leader write is deferred — logged with the
			// entry, written home by a later piggyback or third flush.
			it.leader(e)
		}
		// Apply replays pure redo steps: the versions the keep count no
		// longer covers were resolved by the walk above, under the monitor.
		// Trimming one costs its delete.
		for _, de := range l.stale {
			it.remove(de, 1)
		}
		v.ops.creates.Add(1)
		f = &File{v: v, e: *e, leaderVerified: true}
		if class != SymLink && len(data) == 0 && v.dataCache != nil && l.e != nil {
			// An empty version is streamed next, likely to its
			// predecessor's size: its first growth reserves that much.
			f.hint = int32(l.e.Pages())
		}
		return nil
	})
	return f, err
}

// writeLeaderAndData writes the leader and the file contents. The leader and
// the first data chunk go out as one clustered transfer — the paper's "a
// file create typically does one I/O synchronously" — with the chunk no
// longer truncated at the leader boundary: a full MaxTransferSectors of data
// rides along with the leader, matching writeFrom's piggybacked write. Each
// run gets its own requests — no run table holds two runs that meet on the
// disk (alloc.Join), so the runs are the transfer plan. Like writeFrom it
// lends data: whole sectors go out straight from it, the zero-padded last
// one through the window's scratch.
//
// The CPU copies a chunk before its request goes out. The first chunk's copy,
// the leader's with it, is charged ahead of the first request, as a lone
// chunk's always was; every later chunk is copied while the disk writes the
// one before it, so its copy is charged behind that request and hides under
// its transfer (DESIGN §12, "Pipelined chunks") — unless that chunk was held
// (writeChunk), which put no transfer beside it.
func (v *Volume) writeLeaderAndData(e *Entry, leader, data []byte) error {
	pages := (len(data) + disk.SectorSize - 1) / disk.SectorSize
	w := ioWindow{p: data}
	copy(w.edge[1][:], data[len(data)/disk.SectorSize*disk.SectorSize:])
	written := 0 // data sectors written so far
	prev := -1   // sectors of the request last issued; -1 before the first
	for i, r := range e.Runs {
		addr, n := int(r.Start), int(r.Len)
		var lead []byte
		if i == 0 {
			// The run begins with the leader page, which rides ahead of the
			// first data chunk (or alone, if the run ends with it).
			lead = leader
			addr++
			n--
		}
		for ; (n > 0 || lead != nil) && written < pages; lead = nil {
			chunk := min(n, MaxTransferSectors, pages-written)
			if prev < 0 {
				v.copied(chunk+1, 0)
			} else {
				v.copied(chunk, prev)
			}
			held, err := v.writeChunk(&w, lead, addr, written, chunk)
			if err != nil {
				return err
			}
			prev = chunk
			if lead != nil {
				prev++
			}
			if held {
				prev = 0
			}
			written += chunk
			addr += chunk
			n -= chunk
		}
	}
	v.ops.writes.Add(1)
	return nil
}

// Open returns a handle on a file; version 0 opens the newest. Opening a
// cached file updates its last-used time — the canonical group-commit
// hot-spot update. Open normally costs no I/O: all properties, including
// the run table, are in the (cached) name table.
func (v *Volume) Open(name string, version uint32) (_ *File, err error) {
	defer v.span("open")(&err)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if err := v.begin(); err != nil {
		return nil, err
	}
	// Read-your-writes through the intent queue: wait out any pending
	// intents on this name before consulting the tree.
	if err := v.waitName(name); err != nil {
		return nil, err
	}
	e, err := v.statLocked(name, version)
	if err != nil {
		return nil, err
	}
	if e.Class == SymLink {
		return nil, fmt.Errorf("%w: %q -> %q", ErrIsSymlink, name, e.LinkTarget)
	}
	v.ops.opens.Add(1)
	if e.Class == Cached {
		// The refresh is a read-modify-write step, so it can neither
		// resurrect a concurrently deleted entry nor clobber a newer update.
		e.LastUsed = v.clk.Now()
		it := newIntent("open-touch", [2]string{e.Name})
		it.add(intentStep{op: stepTouch, cost: 1, key: entryKey(e.Name, e.Version), t: e.LastUsed})
		if err := v.submit(it); err != nil {
			return nil, err
		}
	}
	return &File{v: v, e: *e}, nil
}

// Stat returns a file's entry without opening it; version 0 = newest.
func (v *Volume) Stat(name string, version uint32) (_ *Entry, err error) {
	defer v.span("stat")(&err)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if err := v.begin(); err != nil {
		return nil, err
	}
	if err := v.waitName(name); err != nil {
		return nil, err
	}
	return v.statLocked(name, version)
}

// Touch updates a file's last-used time (the property update the paper uses
// as its one-page log record example).
func (v *Volume) Touch(name string, version uint32) error {
	return v.mutate("touch", nil, [2]string{name}, func(it *intent) error {
		e, err := v.statLocked(name, version)
		if err != nil {
			return err
		}
		e.LastUsed = v.clk.Now()
		v.ops.touches.Add(1)
		it.put(e)
		return nil
	})
}

// SetKeep sets the keep count on the newest version of name; it takes
// effect at the next create.
func (v *Volume) SetKeep(name string, keep uint16) error {
	return v.mutate("setkeep", nil, [2]string{name}, func(it *intent) error {
		e, err := v.statLocked(name, 0)
		if err != nil {
			return err
		}
		e.Keep = keep
		it.put(e)
		return nil
	})
}

// Delete removes a file version (0 = newest). Its pages become allocatable
// when the deletion commits — at the next log force.
func (v *Volume) Delete(name string, version uint32) error {
	return v.mutate("delete", nil, [2]string{name}, func(it *intent) error {
		e, err := v.statLocked(name, version)
		if err != nil {
			return err
		}
		v.ops.deletes.Add(1)
		it.remove(e, 1)
		return nil
	})
}

// List calls fn for every entry whose name starts with prefix, in name then
// version order, until fn returns false. Properties need no extra I/O:
// "there is no need for a disk read for the properties since they are
// already available in the file name table."
func (v *Volume) List(prefix string, fn func(Entry) bool) (err error) {
	defer v.span("list")(&err)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if err := v.begin(); err != nil {
		return err
	}
	// A scan must see a consistent prefix of the mutation history: wait
	// out pending intents under the prefix's directory before walking.
	if err := v.waitPrefix(prefix); err != nil {
		return err
	}
	v.ops.lists.Add(1)
	return v.nt.Scan([]byte(prefix), func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			return false
		}
		e, err := decodeEntry(name, ver, val)
		if err != nil {
			return true
		}
		v.cpu.Charge(sim.CostBTreeOp / 8)
		return fn(*e)
	})
}

// ReadPages reads n data pages starting at logical page `page` into a new
// buffer; see readInto.
func (f *File) ReadPages(page, n int) ([]byte, error) {
	out := make([]byte, max(n, 0)*disk.SectorSize)
	if err := f.readInto(out, int64(page)*disk.SectorSize); err != nil {
		return nil, err
	}
	return out, nil
}

// ioWindow maps the sectors of a transfer onto the caller's buffer p, which
// holds — or, for a write, supplies — the file's bytes from offset off on. A
// sector the window covers whole travels straight between the platter and p;
// the first or the last sector, when the window covers only part of it, goes
// through a scratch sector: a read copies from it (settle), a write patches
// it first (File.patchEdges).
type ioWindow struct {
	p    []byte
	off  int64
	edge [2][disk.SectorSize]byte
}

// place returns, in order, the buffers of sectors [cur, cur+cnt) —
// consecutive entries of a GetRangeInto or ReadSectorsInto scatter list, or
// of a write's gather list. Any of the three may be empty. (They are results,
// not stores into a list the caller passes, so that the window can stay on
// the caller's stack.)
func (w *ioWindow) place(cur, cnt int) (first, whole, last []byte) {
	lo, hi := int64(cur)*disk.SectorSize, int64(cur+cnt)*disk.SectorSize
	if lo < w.off {
		first = w.edge[0][:]
		lo += disk.SectorSize
	}
	// A partial last sector — unless it is the partial first one again.
	if hi > w.off+int64(len(w.p)) && hi-disk.SectorSize >= w.off {
		last = w.edge[1][:]
		hi -= disk.SectorSize
	}
	if hi > lo {
		whole = w.p[lo-w.off : hi-w.off]
	}
	return first, whole, last
}

// settle copies what the window covers of the scratch sectors place handed
// out for [cur, cur+cnt) into p; each copy stops at the end of p.
func (w *ioWindow) settle(cur, cnt int) {
	if lo := int64(cur) * disk.SectorSize; lo < w.off {
		copy(w.p, w.edge[0][w.off-lo:])
	}
	if last := int64(cur+cnt-1) * disk.SectorSize; last+disk.SectorSize > w.off+int64(len(w.p)) && last >= w.off {
		copy(w.p[last-w.off:], w.edge[1][:])
	}
}

// readInto fills p with the file's bytes from byte offset off on; the pages
// holding them must be allocated. It is the one read path: ReadPages and
// ReadAt are windows onto it. Whole sectors travel platter → p (or, on a
// data-cache hit, frame → p) with no buffer in between; a miss then copies
// them p → frame to fill the cache.
//
// The first access to a file verifies the leader by piggybacking its read
// onto the data transfer: "the leader page is the previous physical page on
// the disk... it usually costs only the transfer time for a page".
//
// Each chunk is one request inside one run (Entry.ContiguousFrom). With the
// data cache on, it is looked up there first; a miss is filled by that
// request and, when the handle is reading sequentially, the request goes on
// through the run by up to the read-ahead budget, platter → frame. Fills are
// write-through partners of WritePages' Update calls and are guarded against
// concurrent invalidation by the cache generation counter.
//
// A chunk read from the platter is settled, filled into the cache and copied
// only once the next chunk's request has gone out: the CPU moves one chunk's
// bytes while the disk transfers the next, as the Dorado's FSD did, and the
// copy hides under that request's transfer (DESIGN §12, "Pipelined chunks").
// The last chunk, and one followed by a cache hit, is copied in the open.
func (f *File) readInto(p []byte, off int64) (err error) {
	v := f.v
	defer v.spanEnd("read", v.clk.Now(), &err)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if err := v.begin(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readLocked(p, off)
}

// readLocked is readInto under the shared monitor and f.mu, which its caller
// holds: a read's own, or a write's look at a sector it covers part of.
func (f *File) readLocked(p []byte, off int64) (err error) {
	v := f.v
	pages := f.e.Pages()
	page := int(off / disk.SectorSize)
	n := int((off+int64(len(p))+disk.SectorSize-1)/disk.SectorSize) - page
	if off < 0 || n <= 0 || page+n > pages {
		return fmt.Errorf("core: read [%d,%d) outside %q!%d (%d pages)", page, page+n, f.e.Name, f.e.Version, pages)
	}
	v.ops.reads.Add(1)
	dc := v.dataCache
	leaderAddr, _ := f.e.LeaderAddr()
	w := ioWindow{p: p, off: off}
	// segs is a transfer's scatter list — leader, first-sector scratch, p,
	// last-sector scratch, then one cache frame per sector read ahead, of
	// which slots holds the cache's handles — with the entries a chunk has
	// no use for left empty or out of the slice it passes on.
	var segs [4 + streamWindow][]byte
	var slots [streamWindow]int32
	var held heldChunk
	defer f.release(&w, &held, 0)
	for cur, remaining := page, n; remaining > 0; {
		addr, cnt, err := f.e.ContiguousFrom(cur, min(remaining, MaxTransferSectors))
		if err != nil {
			return err
		}
		if dc != nil && dc.Holding() {
			// Held sectors are newer than the platter: a request is all
			// held, which the cache serves, or all not.
			_, cnt = dc.HeldRun(addr, cnt)
		}
		segs[1], segs[2], segs[3] = w.place(cur, cnt)
		needLeader := !f.leaderVerified && cur == page && addr == leaderAddr+1
		if needLeader {
			// The check sets the leader against this handle's entry, and an
			// intent of the handle's own that has yet to apply (an Extend)
			// has yet to stage the leader image that goes with it.
			if err := v.waitName(f.e.Name); err != nil {
				return err
			}
		}
		if needLeader && dc != nil && dc.Holding() {
			// A held leader, or one home ahead of held data, is checked
			// on its own: the request cannot carry it.
			if err := f.verifyLeaderApart(leaderAddr, addr); err != nil {
				return err
			}
			needLeader = !f.leaderVerified
		}
		ahead := 0
		var gen uint64
		if dc != nil {
			// A sequential reader's next step: the chunk starts where the
			// handle's last one ended — or, on a fresh handle, at the start
			// of the file and asks for all a demand transfer gives, as a
			// reader that means to go on does and one after a header
			// does not.
			stream := cur == f.seqNext && (cur > 0 || cnt == MaxTransferSectors)
			f.seqNext = cur + cnt
			if !needLeader {
				if dc.GetRangeInto(addr, segs[1:4]...) {
					v.trace(obs.Event{Kind: obs.EvDataHit, OK: true, A: int64(addr), B: int64(cnt)})
					f.release(&w, &held, 0)
					w.settle(cur, cnt)
					v.copied(cnt, 0)
					cur += cnt
					remaining -= cnt
					continue
				}
				v.trace(obs.Event{Kind: obs.EvDataMiss, OK: true, A: int64(addr), B: int64(cnt)})
			}
			// Miss. If it is a sequential reader's next step, the same
			// request goes on through the run by up to the read-ahead
			// budget — never past the end of the file — into frames the
			// cache lends, so that the reader's next chunks are hits, not
			// requests that each wait for the platter to come round again.
			if ra := v.cfg.readAhead(); ra > 0 && stream && pages-cur > cnt {
				if _, stretch, err := f.e.ContiguousFrom(cur, min(cnt+ra, pages-cur)); err == nil && stretch > cnt {
					ahead = dc.Reserve(addr+cnt, segs[4:4+stretch-cnt], slots[:])
				}
			}
			gen = dc.Gen()
		}
		var rerr error
		sectors := cnt + ahead // the request's transfer
		if needLeader {
			// Piggyback the leader read on the first data access.
			var leader [disk.SectorSize]byte
			segs[0] = leader[:]
			sectors++
			if rerr = v.readSectorsRetryInto(addr-1, segs[:4+ahead]...); rerr == nil {
				rerr = f.verifyLeaderBuf(leader[:])
			}
		} else {
			rerr = v.readSectorsRetryInto(addr, segs[1:4+ahead]...)
		}
		if ahead > 0 {
			dc.Commit(addr+cnt, slots[:ahead], gen, rerr == nil)
		}
		if rerr != nil {
			return rerr
		}
		// The chunk before this one was copied while this request's demand
		// part ran.
		f.release(&w, &held, sectors-ahead)
		if ahead > 0 {
			v.trace(obs.Event{Kind: obs.EvReadAhead, OK: true, A: int64(addr), B: int64(ahead)})
		}
		held = heldChunk{cur: cur, cnt: cnt, addr: addr, segs: [3][]byte(segs[1:4]), gen: gen}
		if ahead > 0 {
			// This chunk's sectors arrived before the read-ahead's: its copy
			// ran while the disk moved those (DESIGN §12, "Pipelined chunks").
			f.release(&w, &held, ahead)
		}
		cur += cnt
		remaining -= cnt
	}
	return nil
}

// heldChunk is a chunk readLocked has read from the platter and not yet
// settled, filled into the cache or copied; cnt 0 is none.
type heldChunk struct {
	cur, cnt, addr int
	segs           [3][]byte // where its sectors landed: the window's place
	gen            uint64    // the data cache's generation before the read
}

// release finishes the held chunk's CPU side, if there is one: it fills the
// data cache with the chunk's sectors, settles the window's scratch sectors
// into p and charges the copy — which ran while the disk transferred `under`
// sectors of this read's next request, 0 if none was in flight.
func (f *File) release(w *ioWindow, h *heldChunk, under int) {
	if h.cnt == 0 {
		return
	}
	if dc := f.v.dataCache; dc != nil {
		at := h.addr
		for _, seg := range h.segs {
			if !dc.PutRange(at, seg, h.gen) {
				break
			}
			at += len(seg) / disk.SectorSize
		}
	}
	w.settle(h.cur, h.cnt)
	// The CPU copied the chunk (platter → p is the device's doing, p →
	// frame the fill's); what was read ahead it has not touched, and pays
	// for when a hit delivers it.
	f.v.copied(h.cnt, under)
	h.cnt = 0
}

// copied charges the CPU's copy of n sectors between a device buffer and a
// caller's — the one place this package charges sim.CostPerSectorCopy. The
// copy ran while the disk transferred `under` sectors of the same call's
// neighbouring request: the part of it that fits in that transfer is busy
// time off the clock, the rest advances the clock (sim.CPU.ChargeOverlapped).
// under is 0 where the copy had no transfer of its call beside it.
func (v *Volume) copied(n, under int) {
	secT := v.d.Params().SectorTime(v.d.Geometry())
	v.cpu.ChargeOverlapped(time.Duration(n)*sim.CostPerSectorCopy, time.Duration(under)*secT)
}

// verifyLeaderBuf checks a freshly read leader page; the caller holds the
// monitor (either mode) and f.mu. A pending (not yet home-written) leader
// is verified from memory instead.
func (f *File) verifyLeaderBuf(buf []byte) error {
	addr, _ := f.e.LeaderAddr()
	f.v.lmu.Lock()
	if pending, ok := f.v.pendingLeaders[addr]; ok {
		buf = pending
	}
	f.v.lmu.Unlock()
	if err := verifyLeader(buf, &f.e); err != nil {
		return err
	}
	f.leaderVerified = true
	return nil
}

// verifyLeaderApart verifies the leader at leaderAddr from its held frame,
// if it is held, or with a read of its own if the data at addr is; else it
// leaves the check to the request, which piggybacks it. The caller holds
// what readLocked needs.
func (f *File) verifyLeaderApart(leaderAddr, addr int) error {
	v := f.v
	var leader [disk.SectorSize]byte
	if !v.dataCache.HeldInto(leaderAddr, leader[:]) {
		if held, _ := v.dataCache.HeldRun(addr, 1); !held {
			return nil
		}
		if err := v.readSectorsRetryInto(leaderAddr, leader[:]); err != nil {
			return err
		}
	}
	return f.verifyLeaderBuf(leader[:])
}

// ReadAll returns the whole file contents, trimmed to its byte size.
func (f *File) ReadAll() ([]byte, error) {
	if f.Pages() == 0 {
		return nil, nil
	}
	buf, err := f.ReadPages(0, f.Pages())
	if err != nil {
		return nil, err
	}
	return buf[:f.Size()], nil
}

// WritePages overwrites n = len(data)/512 data pages starting at `page`; see
// writeFrom.
func (f *File) WritePages(page int, data []byte) error {
	if len(data)%disk.SectorSize != 0 {
		return fmt.Errorf("core: write of %d bytes not page-aligned", len(data))
	}
	return f.writeFrom(data, int64(page)*disk.SectorSize)
}

// writeFrom writes p at byte offset off, inside the allocated pages. It is
// the one data write path: WritePages and WriteAt are windows onto it. The
// write lends p: every sector p covers whole goes platter-ward straight from
// it, in one gather per transfer (disk.WriteSectorsFrom) with the pending
// leader page ahead of it and a partly covered last sector behind, and the
// data cache's resident frames are refreshed from the same slices. Nothing
// keeps p: the platter and the frames copy.
//
// If the file's leader page is still pending, the write to page 0 carries
// it along for free. Data writes share the monitor: they touch no
// name-table state, and the deferred-leader maps are guarded by their own
// lock. (A delete of the same file takes the monitor exclusively, so a
// handle's pages cannot be freed mid-write.)
func (f *File) writeFrom(p []byte, off int64) (err error) {
	v := f.v
	defer v.spanEnd("write", v.clk.Now(), &err)
	v.mu.RLock()
	defer v.mu.RUnlock()
	if err := v.beginMutate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeLocked(&f.e, p, off)
}

// writeLocked is writeFrom's body: it writes p at byte offset off inside the
// pages of e — the handle's entry, or the grown entry a growing write is
// about to commit (grow). The caller holds the monitor (either mode) and
// f.mu.
func (f *File) writeLocked(e *Entry, p []byte, off int64) (err error) {
	v := f.v
	page := int(off / disk.SectorSize)
	n := int((off+int64(len(p))+disk.SectorSize-1)/disk.SectorSize) - page
	if off < 0 || len(p) == 0 || page+n > e.Pages() {
		return fmt.Errorf("core: write [%d,%d) outside %q!%d (%d pages)", page, page+n, e.Name, e.Version, e.Pages())
	}
	v.ops.writes.Add(1)
	w := ioWindow{p: p, off: off}
	f.patchEdges(&w)
	leaderAddr, _ := e.LeaderAddr()
	// behind is the chunk written last, whose copy is charged behind the
	// next request, as a read's is (DESIGN §12): the last one's in the open,
	// and so is a held chunk's and the one's before it, which have no
	// transfer beside them.
	behind := 0
	defer func() { v.copied(behind, 0) }()
	for cur, remaining := page, n; remaining > 0; {
		addr, cnt, err := e.ContiguousFrom(cur, min(remaining, MaxTransferSectors))
		if err != nil {
			return err
		}
		var pending []byte
		if cur == page && addr == leaderAddr+1 {
			v.lmu.Lock()
			pending = v.pendingLeaders[leaderAddr]
			v.lmu.Unlock()
		}
		held, err := v.writeChunk(&w, pending, addr, cur, cnt)
		if err != nil {
			return err
		}
		if held {
			v.copied(behind+cnt, 0)
			behind = 0
		} else {
			v.copied(behind, cnt+len(pending)/disk.SectorSize)
			behind = cnt
		}
		if pending != nil {
			// The leader is home now, or held for the force's pass. The
			// entry is dropped only if it is still the slice that went
			// home. A newer image registered meanwhile (an Extend of this
			// file applying behind the write) stays, and so does one a
			// concurrent third crossing re-registered when it wrote an
			// older committed image over this one (flushLeaders).
			v.lmu.Lock()
			if now := v.pendingLeaders[leaderAddr]; len(now) > 0 && &now[0] == &pending[0] {
				delete(v.pendingLeaders, leaderAddr)
			}
			v.lmu.Unlock()
			f.leaderVerified = true
		}
		cur += cnt
		remaining -= cnt
	}
	return nil
}

// patchEdges makes the window's scratch sectors what a write of w.p puts on
// the platter: for the first and the last sector, where p covers only part
// of it, what the sector holds now with p's bytes over that. Only a sector
// that begins inside the file's byte size holds anything — one at or beyond
// it is zeroes around p's bytes, and costs no read. The caller holds what
// readLocked needs.
func (f *File) patchEdges(w *ioWindow) {
	size, end := int64(f.e.ByteSize), w.off+int64(len(w.p))
	if lo := w.off / disk.SectorSize * disk.SectorSize; lo < w.off {
		if lo < size {
			f.readEdge(w.edge[0][:], lo)
		}
		copy(w.edge[0][w.off-lo:], w.p)
	}
	if lo := end / disk.SectorSize * disk.SectorSize; lo < end && lo >= w.off {
		if lo < size {
			f.readEdge(w.edge[1][:], lo)
		}
		copy(w.edge[1][:], w.p[lo-w.off:])
	}
}

// readEdge reads the sector at byte offset lo into dst for patchEdges, or
// leaves dst zeroed if it cannot be read (the write goes over zeroes). It is
// not a reader's step: the handle's sequential position stays where its reads
// left it, and the look reads nothing ahead.
func (f *File) readEdge(dst []byte, lo int64) {
	next := f.seqNext
	f.seqNext = -1
	if f.readLocked(dst, lo) != nil {
		clear(dst)
	}
	f.seqNext = next
}

// writeChunk writes sectors [cur, cur+cnt) of the window w to addr as one
// transfer — led, when lead is not nil, by that page at addr-1 — and then
// refreshes the data cache's resident frames from the same slices (write-
// through: the disk write has happened, so durability does not depend on the
// cache at all; frames not resident stay absent). It and the force's pass
// over held sectors (writeHeld) are the only ways file data leaves core.
//
// On a volume with a data cache, a transfer to fresh pages is held instead
// (held.go): its sectors go into held frames, which the next force writes
// ahead of the record that names them, and writeChunk reports held. Past the
// cache's hold cap it goes out at once, as any other.
func (v *Volume) writeChunk(w *ioWindow, lead []byte, addr, cur, cnt int) (held bool, err error) {
	first, whole, last := w.place(cur, cnt)
	at, n := addr, cnt
	if lead != nil {
		at, n = addr-1, cnt+1
	}
	dc := v.dataCache
	if dc != nil && (v.fresh(at, n) || dc.HeldAny(at, n)) {
		// Held frames among the sectors are refreshed below under the lock
		// the force's pass holds, so that the pass writes the new bytes,
		// not the old over them.
		v.hmu.Lock()
		defer v.hmu.Unlock()
		// Again, now that no pass can end the group under the write.
		if v.fresh(at, n) {
			if dc.Hold(at, lead, first, whole, last) {
				return true, nil
			}
			v.heldStats.writeThrough.Add(1)
		}
	}
	err = v.writeSectorsFrom(at, lead, first, whole, last)
	if err == nil && dc != nil {
		// The leader too: a held one from the create is resident.
		dc.Update(at, lead, first, whole, last)
	}
	return false, err
}

// Extend grows the file by morePages data pages — in place when the
// allocator can, see allocGrowth — and updates the name-table entry (a
// logged metadata operation, no synchronous I/O).
func (f *File) Extend(morePages int) error {
	v := f.v
	return v.mutate("extend", f, [2]string{}, func(it *intent) error {
		grown, err := f.allocGrowth(&f.e, morePages)
		if err != nil {
			return err
		}
		e := f.e
		e.Runs = alloc.Join(f.e.Runs, grown)
		// A run table grown past what a name-table cell holds (a file
		// extended piecemeal between other growing files) fails here, with
		// its new pages freed again, instead of in the Put.
		if err := entryFits(&e); err != nil {
			v.freeNow(grown)
			return err
		}
		it.update(&e)
		it.leader(&e)
		return nil
	})
}

// grow is WriteAt for a write that ends past the byte size (DESIGN §12,
// "Growing writes"): one call, one intent. Under the handle's mutation it
// extends the allocation by what the write needs — in place when the
// allocator can, see allocGrowth; nothing, if the pages are there already
// or a concurrent write on the handle has grown it meanwhile — writes p into
// the grown entry's pages (held or at once, through writeChunk, as any
// write), and then hands off one intent with the byte size, and with the
// grown run table and the leader image that goes with it if it grew. The
// data is written before the intent is, so it is on the platter, or held for
// the force's pass, before the record that names it; a write that fails
// frees the new pages and leaves the entry as it was. Deciding the size here,
// under the handle lock, is what keeps the lower of two racing writes from
// landing last and shrinking the file under the other's bytes.
func (f *File) grow(p []byte, off int64) error {
	v := f.v
	end := off + int64(len(p))
	return v.mutate("write", f, [2]string{}, func(it *intent) (err error) {
		e := f.e
		var grown []alloc.Run
		if more := int((end+disk.SectorSize-1)/disk.SectorSize) - e.Pages(); more > 0 {
			if grown, err = f.allocGrowth(&e, more); err != nil {
				return err
			}
			// Nothing refers to the pages until the intent is handed off;
			// what the write may have held goes with them.
			defer func() {
				if err != nil {
					v.invalidateData(grown)
					v.freeNow(grown)
				}
			}()
			e.Runs = alloc.Join(e.Runs, grown)
			// A run table grown past what a name-table cell holds fails
			// here, as Extend's does, before anything is written.
			if err := entryFits(&e); err != nil {
				return err
			}
		}
		if err := f.writeLocked(&e, p, off); err != nil {
			return err
		}
		if uint64(end) > e.ByteSize {
			e.ByteSize = uint64(end)
		} else if grown == nil {
			return nil // a concurrent write grew the file over this one
		}
		it.update(&e)
		if grown != nil {
			it.leader(&e)
		}
		return nil
	})
}

// freeNow returns runs nothing durable refers to yet to the allocator.
func (v *Volume) freeNow(runs []alloc.Run) {
	v.vmMu.Lock()
	v.al.FreeNow(runs)
	v.vmMu.Unlock()
}

// Contract trims the file to newPages data pages; the freed tail becomes
// allocatable at the next commit.
func (f *File) Contract(newPages int) error {
	return f.v.mutate("contract", f, [2]string{}, func(it *intent) error {
		if newPages < 0 || newPages > f.e.Pages() {
			return fmt.Errorf("core: contract to %d pages of %d", newPages, f.e.Pages())
		}
		keepSectors := newPages + 1 // leader stays
		e := f.e
		var kept []alloc.Run
		var freed []alloc.Run
		for _, r := range e.Runs {
			if keepSectors >= int(r.Len) {
				kept = append(kept, r)
				keepSectors -= int(r.Len)
			} else if keepSectors > 0 {
				kept = append(kept, alloc.Run{Start: r.Start, Len: uint32(keepSectors)})
				freed = append(freed, alloc.Run{Start: r.Start + uint32(keepSectors), Len: r.Len - uint32(keepSectors)})
				keepSectors = 0
			} else {
				freed = append(freed, r)
			}
		}
		e.Runs = kept
		if e.ByteSize > uint64(newPages*disk.SectorSize) {
			e.ByteSize = uint64(newPages * disk.SectorSize)
		}
		it.update(&e)
		it.add(intentStep{op: stepFree, runs: freed})
		it.leader(&e)
		return nil
	})
}

// SetByteSize records a new byte size (within the allocated pages).
func (f *File) SetByteSize(n uint64) error {
	return f.v.mutate("setbytesize", f, [2]string{}, func(it *intent) error {
		if n > uint64(f.e.Pages())*disk.SectorSize {
			return fmt.Errorf("core: byte size %d exceeds %d allocated pages", n, f.e.Pages())
		}
		e := f.e
		e.ByteSize = n
		it.update(&e)
		return nil
	})
}
