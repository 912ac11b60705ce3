// Package bufcache is the sector-addressed buffer cache for file data.
//
// The paper's FSD had no file-data cache: every ReadPages went to the
// platter, one request per allocation run, and the disk model (§6) shows
// short back-to-back requests losing most of their time to re-seeks and
// missed revolutions. This cache sits between core's file data path and the
// simulated disk and recovers that time two ways:
//
//   - caching: recently read (and written-through) sectors are served from
//     memory with no disk request at all;
//   - read-ahead: the request that serves a sequential reader's miss goes on
//     through the rest of its allocation run, straight into frames the
//     reader's next chunks then hit (the reader is detected per file handle,
//     in core; the cache supplies the frames, Reserve and Commit).
//
// There is no cross-run merging to do: no run table holds two runs that
// meet on the disk (alloc.Join keeps them merged), so one run is already
// the longest transfer a request can make.
//
// Durability: the cache is write-through for every page a forced commit
// already names — such a write reaches the disk before (and regardless of)
// any cache state. A write to fresh pages, which no forced commit names yet,
// may instead be held: Hold puts its bytes into frames that reads hit and
// replacement never takes, and the caller writes them to the disk before the
// commit that names them, then hands them back with Release. Held frames are
// the write's one copy; at most half the capacity is held at once.
//
// Buffers: the cache owns every frame, in one slab allocated by New. A hit
// copies frame → the caller's buffer and a demand fill copies the caller's
// buffer → frame, both under the shard lock. The one loan is a read-ahead's:
// Reserve takes frames out of circulation — in no list, under no address —
// for the device to fill, and Commit gives them addresses or sets them free,
// so no pointer into the slab outlives the disk request it was lent to. A
// held frame is lent the same way to the holder's own write of it
// (Held), until Release. Nothing on the hit, fill, reservation, hold
// or eviction path allocates.
//
// Replacement is segmented LRU, per shard: a fill enters the probation
// list, a second reference moves a frame to the protected list, and victims
// come from probation's cold end first, so data read once — a scan many times
// the cache — passes through probation without disturbing what is re-read.
// Held frames are in neither list: replacement never takes them.
//
// Concurrency: lookups run under the volume's shared read monitor, so the
// hit path takes no cache-global mutex — only the lock of the shard the
// sector maps to, held for one 512-byte copy and a list splice. Mutations
// (write-through updates, invalidations) take the affected shard locks plus
// a global generation bump that aborts concurrent fills racing the mutation
// (a fill holds no locks across its disk read, so without the generation
// check a slow fill could install pre-write data over a newer write).
package bufcache

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// SectorSize is the cached unit; it mirrors disk.SectorSize without
// importing the package (the cache is address-space agnostic).
const SectorSize = 512

// numShards spreads the frame maps so concurrent readers rarely contend on
// a shard lock. Must be a power of two.
const numShards = 16

// protectedShare is the part of each shard's frames, as a fraction 1/n, the
// protected list may hold; the rest is the least probation ever has. A half
// each: the protected half is what a re-read working set can count on
// whatever streams past it, the probation half is what read-ahead windows
// have to survive in until their readers arrive (core's stream window is
// sized against it, DESIGN §12).
const protectedShare = 2

// Stats is a snapshot of the cache counters. Hits and Misses count sectors
// requested through GetRange (a partially cached range counts entirely as a
// miss: the whole range is refetched in one request). A ReadAheadWasted
// share that grows says the caller's stream window is too large for the
// probation half.
type Stats struct {
	Hits             int // sectors served from memory
	Misses           int // sectors that went to the disk
	ReadAheadSectors int // sectors read beyond the request, into lent frames (Commit)
	ReadAheadUsed    int // of those, frames a reader then hit
	ReadAheadWasted  int // of those, frames evicted or invalidated unread
	Promotions       int // frames moved to the protected list by a re-reference
	// Deprecated: always 0. No request spans two runs: no run table holds
	// two runs that meet on the disk. The field stays for readers compiled
	// against it.
	CoalescedReads int
	Invalidated    int // frames dropped by invalidation (frees, damage)
	Evicted        int // frames dropped by replacement
	Size           int // frames resident now, held ones included
	Held           int // frames held now (Hold … Release)
	Capacity       int // frame capacity
}

// frame is one cached sector: a slab slot, linked into one of its shard's
// two lists while it holds a sector, into the shard's free chain (through
// next) while it does not, and into nothing while it is reserved or held. Links are
// slab indices, so the slab holds no pointers and the collector never scans
// it.
type frame struct {
	addr       int
	prev, next int32
	flags      uint8
	data       [SectorSize]byte
}

const (
	// fProtected: the frame is on the protected list, not probation.
	fProtected uint8 = 1 << iota
	// fAhead: read-ahead put the sector here and no reader has used it yet.
	fAhead
	// fReserved: lent to a read-ahead in flight (Reserve … Commit).
	fReserved
	// fHeld: resident and indexed, so reads hit it, but in neither list, so
	// replacement never takes it: it holds a write that has not reached the
	// disk yet (Hold … Release).
	fHeld
)

// none terminates the frame lists.
const none int32 = -1

// list is one replacement list: head is the most and tail the least
// recently placed frame.
type list struct{ head, tail int32 }

// shard is one slice of the address space and of the slab. Its lock guards
// the index, the lists and the payload bytes of its frames.
type shard struct {
	mu     sync.Mutex
	index  map[int]int32 // sector address -> slot in frames
	frames []frame
	// lists[0] is probation, lists[fProtected] the protected list, which
	// holds nProtected frames and at most maxProtected.
	lists                    [2]list
	nProtected, maxProtected int
	free                     int32
}

// unlink takes resident frame i out of its list.
func (s *shard) unlink(i int32) {
	f := &s.frames[i]
	l := &s.lists[f.flags&fProtected]
	if f.prev == none {
		l.head = f.next
	} else {
		s.frames[f.prev].next = f.next
	}
	if f.next == none {
		l.tail = f.prev
	} else {
		s.frames[f.next].prev = f.prev
	}
}

// pushFront puts frame i at the head of the list its fProtected flag names.
func (s *shard) pushFront(i int32) {
	f := &s.frames[i]
	l := &s.lists[f.flags&fProtected]
	f.prev, f.next = none, l.head
	if l.head == none {
		l.tail = i
	} else {
		s.frames[l.head].prev = i
	}
	l.head = i
}

// hit records a reader's use of resident frame i. The first use of a sector
// read ahead is the reference its fill stood in for: the frame stays where
// the fill put it. Any other use is a re-reference and moves the frame to
// the head of the protected list, whose coldest frame goes back to the head
// of probation when that makes it too long.
func (s *shard) hit(c *Cache, i int32) {
	f := &s.frames[i]
	if f.flags&fHeld != 0 {
		return
	}
	if f.flags&fAhead != 0 {
		f.flags &^= fAhead
		c.aheadUsed.Add(1)
		return
	}
	if f.flags&fProtected != 0 {
		if s.lists[fProtected].head != i {
			s.unlink(i)
			s.pushFront(i)
		}
		return
	}
	s.unlink(i)
	f.flags |= fProtected
	s.pushFront(i)
	c.promotions.Add(1)
	if s.nProtected++; s.nProtected > s.maxProtected {
		d := s.lists[fProtected].tail
		s.unlink(d)
		s.frames[d].flags &^= fProtected
		s.pushFront(d)
		s.nProtected--
	}
}

// drop takes resident frame i out of its list, if it is in one, and the
// index; the frame is then in nothing, as one from the free chain is once
// popped.
func (s *shard) drop(c *Cache, i int32) {
	f := &s.frames[i]
	if f.flags&fHeld != 0 {
		c.held.Add(-1)
	} else {
		s.unlink(i)
	}
	delete(s.index, f.addr)
	if f.flags&fProtected != 0 {
		s.nProtected--
	}
	if f.flags&fAhead != 0 {
		c.aheadWasted.Add(1)
	}
	c.size.Add(-1)
}

// setFree pushes frame i, which is in nothing, onto the free chain.
func (s *shard) setFree(i int32) {
	s.frames[i].flags = 0
	s.frames[i].next = s.free
	s.free = i
}

// take returns a frame to fill, in nothing: a free one while the shard has
// any, else the coldest frame of probation, which is evicted, else — unless
// the frame is for read-ahead, which may not displace what readers came back
// for — the coldest protected one. It returns none when every candidate is
// out on reservation.
func (s *shard) take(c *Cache, ahead bool) int32 {
	if i := s.free; i != none {
		s.free = s.frames[i].next
		return i
	}
	i := s.lists[0].tail
	if i == none && !ahead {
		i = s.lists[fProtected].tail
	}
	if i != none {
		s.drop(c, i)
		c.evicted.Add(1)
	}
	return i
}

// install makes frame i, from take, the resident frame of addr, at the head
// of probation.
func (s *shard) install(c *Cache, i int32, addr int, flags uint8) {
	s.frames[i].addr = addr
	s.frames[i].flags = flags
	s.index[addr] = i
	s.pushFront(i)
	c.size.Add(1)
}

// reset empties the shard but for its held frames, which stay resident:
// every other frame not out on reservation goes onto the free chain. It
// returns how many resident frames it dropped.
func (s *shard) reset(c *Cache) int {
	dropped := 0
	for a, i := range s.index {
		if s.frames[i].flags&fHeld != 0 {
			continue
		}
		if s.frames[i].flags&fAhead != 0 {
			c.aheadWasted.Add(1)
		}
		delete(s.index, a)
		dropped++
	}
	s.lists = [2]list{{none, none}, {none, none}}
	s.nProtected, s.free = 0, none
	for i := len(s.frames) - 1; i >= 0; i-- {
		if s.frames[i].flags&(fReserved|fHeld) == 0 {
			s.setFree(int32(i))
		}
	}
	return dropped
}

// Cache is a sector-addressed write-through cache. The zero value is not
// usable; call New.
type Cache struct {
	shards   [numShards]shard
	capacity int
	// holdCap bounds the held frames: half the capacity, so that a burst of
	// fresh writes never takes more than half of what readers have.
	holdCap int64

	// gen is bumped by every mutation (write-through update, invalidation,
	// drop) before the mutation touches any shard. A fill captures gen
	// before its disk read and installs frames only while gen is unchanged,
	// so a fill racing a write can never install stale data.
	gen  atomic.Uint64
	size atomic.Int64
	held atomic.Int64

	hits        atomic.Int64
	misses      atomic.Int64
	readAhead   atomic.Int64
	aheadUsed   atomic.Int64
	aheadWasted atomic.Int64
	promotions  atomic.Int64
	invalidated atomic.Int64
	evicted     atomic.Int64
}

// New returns a cache holding up to capacity sectors. Capacity must be at
// least numShards; smaller values are rounded up so every shard can hold a
// frame.
func New(capacity int) *Cache {
	if capacity < numShards {
		capacity = numShards
	}
	c := &Cache{capacity: capacity, holdCap: int64(capacity / 2)}
	perShard := (capacity + numShards - 1) / numShards
	slab := make([]frame, perShard*numShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.index = make(map[int]int32, perShard)
		s.frames = slab[i*perShard : (i+1)*perShard]
		s.maxProtected = perShard / protectedShare
		s.reset(c)
	}
	return c
}

// Capacity returns the frame capacity.
func (c *Cache) Capacity() int { return c.capacity }

// shardFor maps a sector address to its shard. Consecutive addresses land
// in different shards, so a contiguous fill spreads its lock traffic.
func (c *Cache) shardFor(addr int) *shard {
	return &c.shards[addr&(numShards-1)]
}

// GetRangeInto copies the cached sectors starting at addr into dst — one or
// more buffers of whole sectors, filled in order — if every one of them is
// resident. A partial hit returns false and counts as a full miss — the
// caller refetches the whole range in one disk request, which is cheaper
// than stitching a short cached prefix to a second short disk read — and
// leaves dst partly overwritten.
func (c *Cache) GetRangeInto(addr int, dst ...[]byte) bool {
	n := 0
	for _, d := range dst {
		n += len(d) / SectorSize
	}
	a := addr
	for _, d := range dst {
		for ; len(d) >= SectorSize; d, a = d[SectorSize:], a+1 {
			s := c.shardFor(a)
			s.mu.Lock()
			i, ok := s.index[a]
			if !ok {
				s.mu.Unlock()
				c.misses.Add(int64(n))
				return false
			}
			copy(d, s.frames[i].data[:])
			s.hit(c, i)
			s.mu.Unlock()
		}
	}
	c.hits.Add(int64(n))
	return true
}

// GetRange is GetRangeInto a freshly allocated buffer of n sectors.
func (c *Cache) GetRange(addr, n int) ([]byte, bool) {
	buf := make([]byte, n*SectorSize)
	if !c.GetRangeInto(addr, buf) {
		return nil, false
	}
	return buf, true
}

// Gen returns the mutation generation. Capture it before the disk read of a
// fill and pass it to PutRange and Commit: the fill installs nothing if any
// mutation landed in between.
func (c *Cache) Gen() uint64 { return c.gen.Load() }

// PutRange installs len(data)/SectorSize sectors a reader asked for, read
// from the disk at addr, copying them into frames (see take for which) at
// the head of probation; a sector already resident only has its bytes
// refreshed, and a held one is left alone: its frame is newer than the disk. The install is abandoned (returning false) as soon as the
// cache's generation differs from gen, so a fill whose disk read raced a
// write-through update or an invalidation cannot resurrect stale bytes.
func (c *Cache) PutRange(addr int, data []byte, gen uint64) bool {
	for ; len(data) >= SectorSize; data, addr = data[SectorSize:], addr+1 {
		s := c.shardFor(addr)
		s.mu.Lock()
		if c.gen.Load() != gen {
			s.mu.Unlock()
			return false
		}
		i, ok := s.index[addr]
		if !ok {
			if i = s.take(c, false); i != none {
				s.install(c, i, addr, 0)
			}
		}
		if i != none && s.frames[i].flags&fHeld == 0 {
			copy(s.frames[i].data[:], data)
		}
		s.mu.Unlock()
	}
	return true
}

// Reserve lends out frames for a read-ahead of sectors [addr, addr+len(bufs)):
// it stores each frame's payload buffer in bufs — entries of the scatter list
// of the disk request about to be issued, so the device fills the frames with
// no copy in between — and its slot in slots (as long as bufs), for Commit.
// It returns how many sectors, from addr on, it found frames for; the read
// must stop there. It stops at a sector that is resident already — what lies
// beyond was most likely read ahead before — and when a shard has no frame
// to give: frames come from the free chains and the cold end of probation
// only.
func (c *Cache) Reserve(addr int, bufs [][]byte, slots []int32) int {
	for k := range bufs {
		s := c.shardFor(addr + k)
		s.mu.Lock()
		i := none
		if _, resident := s.index[addr+k]; !resident {
			i = s.take(c, true)
		}
		if i != none {
			s.frames[i].flags = fReserved
			bufs[k] = s.frames[i].data[:]
			slots[k] = i
		}
		s.mu.Unlock()
		if i == none {
			return k
		}
	}
	return len(bufs)
}

// Commit ends the loan Reserve(addr, …, slots) made. If the read succeeded
// (ok) and no mutation has landed since gen was captured, the frames become
// the resident, not yet used, frames of sectors addr onward, at the head of
// probation; otherwise — and for a sector that became resident meanwhile —
// they are set free.
func (c *Cache) Commit(addr int, slots []int32, gen uint64, ok bool) {
	if ok {
		c.readAhead.Add(int64(len(slots)))
	}
	for k, i := range slots {
		s := c.shardFor(addr + k)
		s.mu.Lock()
		_, resident := s.index[addr+k]
		if ok = ok && c.gen.Load() == gen; ok && !resident {
			s.install(c, i, addr+k, fAhead)
		} else {
			s.setFree(i)
		}
		s.mu.Unlock()
	}
}

// Update is the write-through hook: the caller has already written data —
// the gather list of its transfer, whole sectors in order — to the disk at
// addr, and any resident frames must reflect it. Frames not
// resident are left absent (no write-allocate), and resident ones stay where
// they are in their lists: a pure writer should not evict a reader's working
// set, nor decide what is worth keeping. The generation bump precedes the
// shard sweep, so a concurrent fill that read pre-write bytes aborts.
func (c *Cache) Update(addr int, data ...[]byte) {
	c.gen.Add(1)
	for _, b := range data {
		for ; len(b) >= SectorSize; b, addr = b[SectorSize:], addr+1 {
			s := c.shardFor(addr)
			s.mu.Lock()
			if f, ok := s.index[addr]; ok {
				copy(s.frames[f].data[:], b)
			}
			s.mu.Unlock()
		}
	}
}

// Invalidate drops any frames covering [addr, addr+n), held ones included:
// the sectors were freed, or rewritten outside the data path, and the next
// read must see the disk. A held frame dropped here is a write that never
// goes out. Callers serialize it with Hold and Release.
func (c *Cache) Invalidate(addr, n int) { c.invalidate(addr, n, false) }

// Damaged drops the frames covering [addr, addr+n) that are not held: the
// platter changed behind the file system's back, so the next read must see
// it — except where a frame holds a write still to come, which puts the
// sector right again.
func (c *Cache) Damaged(addr, n int) { c.invalidate(addr, n, true) }

func (c *Cache) invalidate(addr, n int, keepHeld bool) {
	c.gen.Add(1)
	for i := 0; i < n; i++ {
		s := c.shardFor(addr + i)
		s.mu.Lock()
		if f, ok := s.index[addr+i]; ok && !(keepHeld && s.frames[f].flags&fHeld != 0) {
			s.drop(c, f)
			s.setFree(f)
			c.invalidated.Add(1)
		}
		s.mu.Unlock()
	}
}

// DropAll empties the cache but for its held frames (DropCaches,
// measurement harnesses).
func (c *Cache) DropAll() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := s.reset(c)
		s.mu.Unlock()
		c.size.Add(int64(-n))
		c.invalidated.Add(int64(n))
	}
}

// Hold puts a write the caller keeps from the disk for now into held
// frames: data — the gather list of the transfer it stands in for, whole
// sectors in order — for sectors addr onward. Reads hit held frames,
// replacement never takes them, and a resident frame of one of the sectors
// is held in place. Frames come from the free chains and the cold end of
// probation, never the protected list. Hold returns false, holding none of
// the sectors, when the held frames would pass half the capacity — counting
// every sector of the write, held already or not — or a shard has no frame
// to give; the caller then writes to the disk at once and calls Update over
// every sector, which puts the new bytes into a frame an earlier Hold held
// among them. Hold, Release, Invalidate and such an Update of held sectors
// must not run concurrently with each other: the caller serializes them.
func (c *Cache) Hold(addr int, data ...[]byte) bool {
	n := 0
	for _, b := range data {
		n += len(b) / SectorSize
	}
	// Sectors already held count as new: a rewrite of held sectors near the
	// cap goes out at once a little early, and the cap costs no lookups.
	if c.held.Load()+int64(n) > c.holdCap {
		return false
	}
	c.gen.Add(1)
	added := int64(0)
	for k := 0; k < min(n, numShards); k++ {
		s := c.shardFor(addr + k)
		s.mu.Lock()
		for j := k; j < n; j += numShards {
			a := addr + j
			i, ok := s.index[a]
			if !ok || s.frames[i].flags&fHeld == 0 {
				if ok {
					s.drop(c, i) // held in place
				} else if i = s.take(c, true); i == none {
					s.mu.Unlock()
					c.size.Add(added)
					c.held.Add(added)
					c.invalidate(addr, n, false)
					return false
				}
				s.frames[i].addr = a
				s.frames[i].flags = fHeld
				s.index[a] = i
				added++
			}
			copy(s.frames[i].data[:], sectorOf(data, j))
		}
		s.mu.Unlock()
	}
	c.size.Add(added)
	c.held.Add(added)
	return true
}

// sectorOf returns sector j of the gather list data.
func sectorOf(data [][]byte, j int) []byte {
	for _, b := range data {
		if k := len(b) / SectorSize; j >= k {
			j -= k
		} else {
			return b[j*SectorSize : (j+1)*SectorSize]
		}
	}
	return nil
}

// Holding reports whether any sector is held.
func (c *Cache) Holding() bool { return c.held.Load() > 0 }

// HeldRun reports whether sector addr is held, and for how many sectors
// from addr on, at most n, the answer is the same.
func (c *Cache) HeldRun(addr, n int) (held bool, k int) {
	for ; k < n; k++ {
		s := c.shardFor(addr + k)
		s.mu.Lock()
		i, ok := s.index[addr+k]
		h := ok && s.frames[i].flags&fHeld != 0
		s.mu.Unlock()
		if k == 0 {
			held = h
		} else if h != held {
			break
		}
	}
	return held, k
}

// HeldAny reports whether any sector of [addr, addr+n) is held.
func (c *Cache) HeldAny(addr, n int) bool {
	if !c.Holding() {
		return false
	}
	held, k := c.HeldRun(addr, n)
	return held || k < n
}

// HeldInto copies sector addr into dst if it is held, and reports whether
// it was.
func (c *Cache) HeldInto(addr int, dst []byte) bool {
	s := c.shardFor(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[addr]
	if ok = ok && s.frames[i].flags&fHeld != 0; ok {
		copy(dst, s.frames[i].data[:])
	}
	return ok
}

// Sector is a held sector: its address and its frame's payload. Data is
// the frame itself: it stays valid, and its bytes unchanged by anyone but
// the holder, until the sector is released or invalidated.
type Sector struct {
	Addr int
	Data []byte
}

// Held appends every held sector to dst, in address order.
func (c *Cache) Held(dst []Sector) []Sector {
	if !c.Holding() {
		return dst
	}
	base := len(dst)
	for k := range c.shards {
		s := &c.shards[k]
		s.mu.Lock()
		for i := range s.frames {
			if f := &s.frames[i]; f.flags&fHeld != 0 {
				dst = append(dst, Sector{Addr: f.addr, Data: f.data[:]})
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(dst[base:], func(a, b Sector) int { return cmp.Compare(a.Addr, b.Addr) })
	return dst
}

// Release hands back the held frames of sectors [addr, addr+n), which the
// caller has now written to the disk: they go free, as a write-through
// write's sectors are never cached (no write-allocate).
func (c *Cache) Release(addr, n int) {
	released := int64(0)
	for k := 0; k < min(n, numShards); k++ {
		s := c.shardFor(addr + k)
		s.mu.Lock()
		for a := addr + k; a < addr+n; a += numShards {
			if i, ok := s.index[a]; ok && s.frames[i].flags&fHeld != 0 {
				delete(s.index, a)
				s.setFree(i)
				released++
			}
		}
		s.mu.Unlock()
	}
	c.held.Add(-released)
	c.size.Add(-released)
}

// Stats returns a snapshot of the counters. All sources are atomics, so it
// never blocks a reader or writer.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             int(c.hits.Load()),
		Misses:           int(c.misses.Load()),
		ReadAheadSectors: int(c.readAhead.Load()),
		ReadAheadUsed:    int(c.aheadUsed.Load()),
		ReadAheadWasted:  int(c.aheadWasted.Load()),
		Promotions:       int(c.promotions.Load()),
		Invalidated:      int(c.invalidated.Load()),
		Evicted:          int(c.evicted.Load()),
		Size:             int(c.size.Load()),
		Held:             int(c.held.Load()),
		Capacity:         c.capacity,
	}
}
