package bufcache

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the replacement policy as a model, kept as the reference the
// slab and its intrusive lists are held to: every placement at the head of a
// list stamps the sector with the next value of a global clock, the coldest
// frame of a list is the one with the oldest stamp, found by scanning, and
// the rules are written out one by one — a fill enters probation; a
// re-reference promotes, demoting the coldest protected sector when its
// segment overflows; the first use of a sector read ahead only marks it
// used; an update moves nothing; victims come from probation first, and for
// read-ahead from nowhere else. It holds no data.
type refCache struct {
	perShard, maxProtected int
	shards                 [numShards]map[int]*refFrame
	tick                   int64
	evicted                []int // every address evicted, in order
	promotions             int
	used, wasted           int
}

type refFrame struct {
	tick             int64
	protected, ahead bool
}

func newRefCache(capacity int) *refCache {
	per := (capacity + numShards - 1) / numShards
	r := &refCache{perShard: per, maxProtected: per / protectedShare}
	for i := range r.shards {
		r.shards[i] = make(map[int]*refFrame)
	}
	return r
}

func (r *refCache) shard(addr int) map[int]*refFrame { return r.shards[addr&(numShards-1)] }

func (r *refCache) place(f *refFrame) {
	r.tick++
	f.tick = r.tick
}

// coldest returns the sector of s with the oldest stamp on the given list,
// or -1.
func coldest(s map[int]*refFrame, protected bool) int {
	victim := -1
	for a, f := range s {
		if f.protected == protected && (victim < 0 || f.tick < s[victim].tick) {
			victim = a
		}
	}
	return victim
}

func (r *refCache) hit(s map[int]*refFrame, f *refFrame) {
	switch {
	case f.ahead:
		f.ahead = false
		r.used++
	case f.protected:
		r.place(f)
	default:
		f.protected = true
		r.place(f)
		r.promotions++
		n := 0
		for _, g := range s {
			if g.protected {
				n++
			}
		}
		if n > r.maxProtected {
			d := s[coldest(s, true)]
			d.protected = false
			r.place(d)
		}
	}
}

// get uses the resident prefix and stops at the first absent sector, as
// GetRange does.
func (r *refCache) get(addr, n int) bool {
	for a := addr; a < addr+n; a++ {
		s := r.shard(a)
		f, ok := s[a]
		if !ok {
			return false
		}
		r.hit(s, f)
	}
	return true
}

// makeRoom evicts from s until it has a frame to spare beside the lent
// already out on loan; false if nothing may be evicted.
func (r *refCache) makeRoom(s map[int]*refFrame, lent int, ahead bool) bool {
	if len(s)+lent < r.perShard {
		return true
	}
	victim := coldest(s, false)
	if victim < 0 && !ahead {
		victim = coldest(s, true)
	}
	if victim < 0 {
		return false
	}
	if s[victim].ahead {
		r.wasted++
	}
	delete(s, victim)
	r.evicted = append(r.evicted, victim)
	return true
}

func (r *refCache) put(addr, n int) {
	for a := addr; a < addr+n; a++ {
		s := r.shard(a)
		if _, ok := s[a]; !ok && r.makeRoom(s, 0, false) {
			s[a] = &refFrame{}
			r.place(s[a])
		}
	}
}

// putAhead is Reserve then Commit: frames are taken for the whole range —
// up to the first resident sector or the first shard with none to give —
// before any of it is installed.
func (r *refCache) putAhead(addr, n int) int {
	var lent [numShards]int
	k := 0
	for ; k < n; k++ {
		s := r.shard(addr + k)
		if _, ok := s[addr+k]; ok || !r.makeRoom(s, lent[(addr+k)&(numShards-1)], true) {
			break
		}
		lent[(addr+k)&(numShards-1)]++
	}
	for a := addr; a < addr+k; a++ {
		r.shard(a)[a] = &refFrame{ahead: true}
		r.place(r.shard(a)[a])
	}
	return k
}

func (r *refCache) invalidate(addr, n int) {
	for a := addr; a < addr+n; a++ {
		if f, ok := r.shard(a)[a]; ok {
			if f.ahead {
				r.wasted++
			}
			delete(r.shard(a), a)
		}
	}
}

func (r *refCache) resident() []int {
	var out []int
	for _, s := range r.shards {
		for a := range s {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// resident lists the cache's resident addresses without touching them.
func (c *Cache) resident() []int {
	var out []int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for a := range s.index {
			out = append(out, a)
		}
		s.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// TestExactLRUEquivalence replays one seeded single-goroutine trace of
// put/read-ahead/get/update/invalidate into the cache and into the
// two-segment reference and requires, after every operation, the same
// resident set — which, the inputs being equal, is the same victim at every
// eviction — and at the end the same eviction, promotion and read-ahead
// counts. Hits must agree too: they are what promotes.
func TestExactLRUEquivalence(t *testing.T) {
	for _, capacity := range []int{numShards, 3 * numShards, 100} {
		c := New(capacity)
		ref := newRefCache(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		data := make([]byte, 12*SectorSize)
		bufs, slots := make([][]byte, 12), make([]int32, 12)
		span := 6 * capacity // addresses in play: six times what fits
		var before []int
		for step := 0; step < 20000; step++ {
			// A third of the accesses go to a hot eighth of the span, so
			// re-touches, and not just arrival order, decide the victims.
			addr := rng.Intn(span)
			if rng.Intn(3) == 0 {
				addr = rng.Intn(span / 8)
			}
			n := 1 + rng.Intn(12)
			op := rng.Intn(10)
			switch {
			case op < 3:
				c.PutRange(addr, data[:n*SectorSize], c.Gen())
				ref.put(addr, n)
			case op < 4:
				k := c.Reserve(addr, bufs[:n], slots)
				if want := ref.putAhead(addr, n); k != want {
					t.Fatalf("cap %d step %d: Reserve(%d,%d) lent %d frames, reference %d", capacity, step, addr, n, k, want)
				}
				c.Commit(addr, slots[:k], c.Gen(), true)
			case op < 8:
				_, got := c.GetRange(addr, n)
				if want := ref.get(addr, n); got != want {
					t.Fatalf("cap %d step %d: get(%d,%d) hit=%v, reference %v", capacity, step, addr, n, got, want)
				}
			case op < 9:
				c.Update(addr, data[:n*SectorSize]) // moves nothing in the reference
			default:
				c.Invalidate(addr, n)
				ref.invalidate(addr, n)
			}
			got, want := c.resident(), ref.resident()
			if !slices.Equal(got, want) {
				t.Fatalf("cap %d step %d (op %d addr %d n %d): resident sets differ\nbefore %v\n   got %v\n  want %v",
					capacity, step, op, addr, n, before, got, want)
			}
			before = got
		}
		st := c.Stats()
		if st.Evicted != len(ref.evicted) || st.Evicted == 0 {
			t.Fatalf("cap %d: %d evictions, reference %d (and want some)", capacity, st.Evicted, len(ref.evicted))
		}
		if st.Promotions != ref.promotions || st.ReadAheadUsed != ref.used || st.ReadAheadWasted != ref.wasted {
			t.Fatalf("cap %d: promotions %d used %d wasted %d, reference %d %d %d", capacity,
				st.Promotions, st.ReadAheadUsed, st.ReadAheadWasted, ref.promotions, ref.used, ref.wasted)
		}
		if capacity > numShards && (st.Promotions == 0 || st.ReadAheadUsed == 0 || st.ReadAheadWasted == 0) {
			t.Fatalf("cap %d: the trace exercised no promotion, used or wasted read-ahead: %+v", capacity, st)
		}
	}
}

// putAhead reads sectors [addr, addr+n) ahead into c.
func putAhead(t *testing.T, c *Cache, addr, n int) {
	t.Helper()
	c.Commit(addr, reserve(t, c, addr, n, 0), c.Gen(), true)
}

// TestScanResistance: a working set that is read twice moves to the
// protected list and survives a scan — demand fills, or read-ahead and the
// single hit that consumes it — of ten times the cache; and a frame read
// ahead and read once has been promoted nowhere.
func TestScanResistance(t *testing.T) {
	const capacity = 1024
	hot := capacity / 4
	data := make([]byte, 64*SectorSize)
	for _, ahead := range []bool{false, true} {
		c := New(capacity)
		for pass := 0; pass < 2; pass++ {
			for a := 0; a < hot; a += 64 {
				if !c.GetRangeInto(a, data) {
					c.PutRange(a, data, c.Gen())
				}
			}
		}
		if got := c.Stats().Promotions; got != hot {
			t.Fatalf("second read of the hot set promoted %d frames, want %d", got, hot)
		}
		for a := capacity; a < 11*capacity; a += 64 {
			if ahead {
				putAhead(t, c, a, 64)
				if !c.GetRangeInto(a, data) {
					t.Fatalf("read-ahead at %d evicted before its reader came", a)
				}
			} else {
				c.PutRange(a, data, c.Gen())
			}
		}
		for a := 0; a < hot; a += 64 {
			if !c.GetRangeInto(a, data) {
				t.Fatalf("ahead=%v: hot range at %d did not survive the scan", ahead, a)
			}
		}
		st := c.Stats()
		if st.Promotions != hot {
			t.Fatalf("ahead=%v: the scan promoted %d frames", ahead, st.Promotions-hot)
		}
		if ahead && (st.ReadAheadUsed != 10*capacity || st.ReadAheadWasted != 0) {
			t.Fatalf("read-ahead used %d wasted %d, want %d and 0", st.ReadAheadUsed, st.ReadAheadWasted, 10*capacity)
		}
	}
}

// TestHitAndFillAllocs are the cache's allocation gates: a full hit into the
// caller's buffer, a steady-state fill that evicts, and a read-ahead's loan
// of frames and its return allocate nothing.
func TestHitAndFillAllocs(t *testing.T) {
	const capacity = 2048
	c := New(capacity)
	data := make([]byte, 64*SectorSize)
	for a := 0; a < capacity; a += 64 {
		c.PutRange(a, data, c.Gen())
	}
	dst := make([]byte, 64*SectorSize)
	at := 0
	if n := testing.AllocsPerRun(200, func() {
		if !c.GetRangeInto(at%capacity, dst) {
			t.Fatal("resident range missed")
		}
		at += 64
	}); n != 0 {
		t.Errorf("full hit: %v allocs, want 0", n)
	}
	next := capacity
	ev0 := c.Stats().Evicted
	if n := testing.AllocsPerRun(2000, func() {
		c.PutRange(next, data, c.Gen())
		next += 64
	}); n != 0 {
		t.Errorf("fill with eviction: %v allocs, want 0", n)
	}
	if ev := c.Stats().Evicted - ev0; ev < 2000*64 {
		t.Fatalf("fills evicted %d frames, want every one of them to evict", ev)
	}
	bufs, slots := make([][]byte, 64), make([]int32, 64)
	if n := testing.AllocsPerRun(2000, func() {
		if k := c.Reserve(next, bufs, slots); k != len(bufs) {
			t.Fatalf("Reserve lent %d frames of %d", k, len(bufs))
		}
		c.Commit(next, slots, c.Gen(), true)
		next += 64
	}); n != 0 {
		t.Errorf("read-ahead reserve and commit: %v allocs, want 0", n)
	}
}

// TestGetRangeIntoSegments: a hit scatters consecutive sectors over the
// caller's buffers in order.
func TestGetRangeIntoSegments(t *testing.T) {
	c := New(64)
	fill(c, 10, 1, 2, 3, 4)
	a, b := make([]byte, SectorSize), make([]byte, 3*SectorSize)
	if !c.GetRangeInto(10, a, b) {
		t.Fatal("resident range missed")
	}
	if a[0] != 1 || b[0] != 2 || b[SectorSize] != 3 || b[3*SectorSize-1] != 4 {
		t.Fatalf("segments filled out of order: %d %d %d %d", a[0], b[0], b[SectorSize], b[3*SectorSize-1])
	}
	if c.GetRangeInto(13, a, b) {
		t.Fatal("range past the resident sectors hit")
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 4 {
		t.Fatalf("hits %d misses %d, want 4 and 4", st.Hits, st.Misses)
	}
}

func BenchmarkHit(b *testing.B) {
	const capacity = 2048
	c := New(capacity)
	data := make([]byte, 64*SectorSize)
	for a := 0; a < capacity; a += 64 {
		c.PutRange(a, data, c.Gen())
	}
	dst := make([]byte, 64*SectorSize)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.GetRangeInto(i%(capacity/64)*64, dst) {
			b.Fatal("miss")
		}
	}
}

func BenchmarkFillEvict(b *testing.B) {
	const capacity = 2048
	c := New(capacity)
	data := make([]byte, 64*SectorSize)
	for a := 0; a < capacity; a += 64 {
		c.PutRange(a, data, c.Gen())
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PutRange(capacity+i*64, data, c.Gen())
	}
}
