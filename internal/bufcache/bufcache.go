// Package bufcache is the sector-addressed buffer cache for file data.
//
// The paper's FSD had no file-data cache: every ReadPages went to the
// platter, one request per allocation run, and the disk model (§6) shows
// short back-to-back requests losing most of their time to re-seeks and
// missed revolutions. This cache sits between core's file data path and the
// simulated disk and recovers that time three ways:
//
//   - caching: recently read (and written-through) sectors are served from
//     memory with no disk request at all;
//   - read-ahead: a miss that continues a detected sequential stream
//     fetches the rest of the physically contiguous stretch — up to the
//     controller's transfer cap — in one request;
//   - clustering: callers use the cache's presence as the signal to merge
//     physically adjacent allocation runs into single transfers (the
//     cross-run coalescing in core/file.go).
//
// Durability is untouched: the cache is strictly write-through. Every write
// reaches the disk before (and regardless of) any cache state, so the
// on-platter image — what the crash-state explorer's oracle inspects — is
// byte-identical with the cache on or off.
//
// Buffers: the cache owns every frame, in one slab allocated by New, and
// never lends one out. A hit copies frame → the caller's buffer, a fill
// copies the caller's buffer → frame, both under the shard lock, so no
// caller ever holds a pointer into the slab and a frame may be reused the
// moment its shard lock is released. Nothing on the hit, fill or eviction
// path allocates.
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
	"sync"
	"sync/atomic"
)

// SectorSize is the cached unit; it mirrors disk.SectorSize without
// importing the package (the cache is address-space agnostic).
const SectorSize = 512

// numShards spreads the frame maps so concurrent readers rarely contend on
// a shard lock. Must be a power of two.
const numShards = 16

// numStreams is the size of the sequential-access detection table; one
// entry tracks one concurrent sequential reader.
const numStreams = 8

// Stats is a snapshot of the cache counters. Hits and Misses count sectors
// requested through GetRange (a partially cached range counts entirely as a
// miss: the whole range is refetched in one request). The coalesce counters
// are fed by the caller via NoteCoalescedRead/Write, since run merging
// happens in the file layer; they count disk requests that spanned at least
// one run boundary.
type Stats struct {
	Hits             int64 // sectors served from memory
	Misses           int64 // sectors that went to the disk
	ReadAheadSectors int64 // sectors fetched beyond the request by read-ahead
	CoalescedReads   int64 // read requests that merged adjacent runs
	CoalescedWrites  int64 // write requests that merged adjacent runs
	Invalidated      int64 // frames dropped by invalidation (frees, damage)
	Evicted          int64 // frames dropped by LRU replacement
	Size             int   // frames resident now
	Capacity         int   // frame capacity
}

// frame is one cached sector: a slab slot, linked into its shard's LRU list
// while it holds a sector and into the shard's free chain (through next)
// while it does not. Links are slab indices, so the slab holds no pointers
// and the collector never scans it.
type frame struct {
	addr       int
	prev, next int32
	data       [SectorSize]byte
}

// none terminates the frame lists.
const none int32 = -1

// shard is one slice of the address space and of the slab. Its lock guards
// the index, the lists and the payload bytes of its frames.
type shard struct {
	mu     sync.Mutex
	index  map[int]int32 // sector address -> slot in frames
	frames []frame
	// head is the most and tail the least recently touched resident frame.
	// Every touch moves a frame to the head, so the tail is the frame a
	// scan for the oldest touch would find: replacement is exact LRU
	// within the shard, at the cost of a splice instead of a scan.
	head, tail int32
	free       int32
}

// unlink takes resident frame i out of the LRU list.
func (s *shard) unlink(i int32) {
	f := &s.frames[i]
	if f.prev == none {
		s.head = f.next
	} else {
		s.frames[f.prev].next = f.next
	}
	if f.next == none {
		s.tail = f.prev
	} else {
		s.frames[f.next].prev = f.prev
	}
}

// pushFront makes frame i the most recently touched.
func (s *shard) pushFront(i int32) {
	f := &s.frames[i]
	f.prev, f.next = none, s.head
	if s.head == none {
		s.tail = i
	} else {
		s.frames[s.head].prev = i
	}
	s.head = i
}

// touch records a use of resident frame i.
func (s *shard) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// release drops resident frame i back onto the free chain.
func (s *shard) release(i int32) {
	s.unlink(i)
	delete(s.index, s.frames[i].addr)
	s.frames[i].next = s.free
	s.free = i
}

// reset empties the shard: every frame onto the free chain.
func (s *shard) reset() {
	clear(s.index)
	s.head, s.tail, s.free = none, none, none
	for i := len(s.frames) - 1; i >= 0; i-- {
		s.frames[i].next = s.free
		s.free = int32(i)
	}
}

// stream is one entry of the sequential-access table: the address the next
// miss of this stream is expected at, if the accesses are sequential.
type stream struct {
	next int
	tick int64
}

// Cache is a sector-addressed write-through LRU cache. The zero value is
// not usable; call New.
type Cache struct {
	shards   [numShards]shard
	capacity int

	// tick orders the stream table's entries (NoteFill).
	tick atomic.Int64
	// gen is bumped by every mutation (write-through update, invalidation,
	// drop) before the mutation touches any shard. A fill captures gen
	// before its disk read and installs frames only while gen is unchanged,
	// so a fill racing a write can never install stale data.
	gen  atomic.Uint64
	size atomic.Int64

	smu     sync.Mutex
	streams [numStreams]stream

	hits        atomic.Int64
	misses      atomic.Int64
	readAhead   atomic.Int64
	coalescedR  atomic.Int64
	coalescedW  atomic.Int64
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
	c := &Cache{capacity: capacity}
	perShard := (capacity + numShards - 1) / numShards
	slab := make([]frame, perShard*numShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.index = make(map[int]int32, perShard)
		s.frames = slab[i*perShard : (i+1)*perShard]
		s.reset()
	}
	for i := range c.streams {
		c.streams[i].next = -1
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
			s.touch(i)
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
// fill and pass it to PutRange: the fill installs nothing if any mutation
// landed in between.
func (c *Cache) Gen() uint64 { return c.gen.Load() }

// PutRange installs len(data)/SectorSize sectors read from the disk at
// addr, copying them into frames: a free one while the shard has any, else
// the shard's least recently touched, which is evicted. The install is
// abandoned (returning false) as soon as the cache's generation differs from
// gen, so a fill whose disk read raced a write-through update or an
// invalidation cannot resurrect stale bytes.
func (c *Cache) PutRange(addr int, data []byte, gen uint64) bool {
	for ; len(data) >= SectorSize; data, addr = data[SectorSize:], addr+1 {
		s := c.shardFor(addr)
		s.mu.Lock()
		if c.gen.Load() != gen {
			s.mu.Unlock()
			return false
		}
		i, ok := s.index[addr]
		if ok {
			s.unlink(i)
		} else {
			if s.free == none {
				s.release(s.tail)
				c.evicted.Add(1)
			} else {
				c.size.Add(1)
			}
			i = s.free
			s.free = s.frames[i].next
			s.frames[i].addr = addr
			s.index[addr] = i
		}
		copy(s.frames[i].data[:], data)
		s.pushFront(i)
		s.mu.Unlock()
	}
	return true
}

// Update is the write-through hook: the caller has already written data to
// the disk at addr, and any resident frames must reflect it. Frames not
// resident are left absent (no write-allocate: a pure writer should not
// evict a reader's working set). The generation bump precedes the shard
// sweep, so a concurrent fill that read pre-write bytes aborts.
func (c *Cache) Update(addr int, data []byte) {
	c.gen.Add(1)
	n := len(data) / SectorSize
	for i := 0; i < n; i++ {
		s := c.shardFor(addr + i)
		s.mu.Lock()
		if f, ok := s.index[addr+i]; ok {
			copy(s.frames[f].data[:], data[i*SectorSize:(i+1)*SectorSize])
			s.touch(f)
		}
		s.mu.Unlock()
	}
}

// Invalidate drops any frames covering [addr, addr+n): the sectors were
// freed, damaged, or rewritten outside the data path, and the next read
// must see the disk.
func (c *Cache) Invalidate(addr, n int) {
	c.gen.Add(1)
	for i := 0; i < n; i++ {
		s := c.shardFor(addr + i)
		s.mu.Lock()
		if f, ok := s.index[addr+i]; ok {
			s.release(f)
			c.size.Add(-1)
			c.invalidated.Add(1)
		}
		s.mu.Unlock()
	}
}

// DropAll empties the cache (DropCaches, measurement harnesses).
func (c *Cache) DropAll() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.index)
		s.reset()
		s.mu.Unlock()
		c.size.Add(int64(-n))
		c.invalidated.Add(int64(n))
	}
	c.smu.Lock()
	for i := range c.streams {
		c.streams[i].next = -1
	}
	c.smu.Unlock()
}

// Sequential reports whether a miss at addr continues a detected sequential
// stream — i.e. some earlier fill ended exactly where this one begins. It
// is consulted on the miss path only, so the small table mutex never sits
// on the hit path.
func (c *Cache) Sequential(addr int) bool {
	c.smu.Lock()
	defer c.smu.Unlock()
	for i := range c.streams {
		if c.streams[i].next == addr {
			return true
		}
	}
	return false
}

// NoteFill teaches the stream table that a fill covered [addr, addr+n): a
// follow-up miss at addr+n is sequential. An existing stream expecting addr
// advances; otherwise the least-recently-advanced entry is repurposed.
func (c *Cache) NoteFill(addr, n int) {
	tick := c.tick.Add(1)
	c.smu.Lock()
	defer c.smu.Unlock()
	victim := 0
	for i := range c.streams {
		if c.streams[i].next == addr {
			c.streams[i].next = addr + n
			c.streams[i].tick = tick
			return
		}
		if c.streams[i].tick < c.streams[victim].tick {
			victim = i
		}
	}
	c.streams[victim] = stream{next: addr + n, tick: tick}
}

// NoteReadAhead records n sectors fetched beyond the request.
func (c *Cache) NoteReadAhead(n int) { c.readAhead.Add(int64(n)) }

// NoteCoalescedRead records a read request that merged adjacent runs.
func (c *Cache) NoteCoalescedRead() { c.coalescedR.Add(1) }

// NoteCoalescedWrite records a write request that merged adjacent runs.
func (c *Cache) NoteCoalescedWrite() { c.coalescedW.Add(1) }

// Stats returns a snapshot of the counters. All sources are atomics, so it
// never blocks a reader or writer.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		ReadAheadSectors: c.readAhead.Load(),
		CoalescedReads:   c.coalescedR.Load(),
		CoalescedWrites:  c.coalescedW.Load(),
		Invalidated:      c.invalidated.Load(),
		Evicted:          c.evicted.Load(),
		Size:             int(c.size.Load()),
		Capacity:         c.capacity,
	}
}
