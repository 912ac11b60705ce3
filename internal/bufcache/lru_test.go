package bufcache

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the replacement policy the cache had before its frames moved
// into a slab with intrusive lists, kept as the reference: every touch
// stamps the sector with the next value of a global clock, and a full shard
// evicts the sector with the oldest stamp, found by scanning. It holds no
// data — the policy is all it models.
type refCache struct {
	perShard int
	shards   [numShards]map[int]int64 // resident sector -> last touch
	tick     int64
	evicted  []int // every address evicted, in order
}

func newRefCache(capacity int) *refCache {
	r := &refCache{perShard: (capacity + numShards - 1) / numShards}
	for i := range r.shards {
		r.shards[i] = make(map[int]int64)
	}
	return r
}

func (r *refCache) shard(addr int) map[int]int64 { return r.shards[addr&(numShards-1)] }

func (r *refCache) touch(addr int) {
	r.tick++
	r.shard(addr)[addr] = r.tick
}

// get touches the resident prefix and stops at the first absent sector, as
// GetRange does.
func (r *refCache) get(addr, n int) bool {
	for a := addr; a < addr+n; a++ {
		if _, ok := r.shard(a)[a]; !ok {
			return false
		}
		r.touch(a)
	}
	return true
}

func (r *refCache) put(addr, n int) {
	for a := addr; a < addr+n; a++ {
		s := r.shard(a)
		if _, ok := s[a]; !ok && len(s) >= r.perShard {
			victim, oldest := -1, int64(0)
			for va, t := range s {
				if victim < 0 || t < oldest {
					victim, oldest = va, t
				}
			}
			delete(s, victim)
			r.evicted = append(r.evicted, victim)
		}
		r.touch(a)
	}
}

func (r *refCache) update(addr, n int) {
	for a := addr; a < addr+n; a++ {
		if _, ok := r.shard(a)[a]; ok {
			r.touch(a)
		}
	}
}

func (r *refCache) invalidate(addr, n int) {
	for a := addr; a < addr+n; a++ {
		delete(r.shard(a), a)
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
// put/get/update/invalidate into the cache and into the min-tick reference
// and requires, after every operation, the same resident set — which, the
// inputs being equal, is the same victim at every eviction — and at the end
// the same eviction count. Hits must agree too: they are what touches.
func TestExactLRUEquivalence(t *testing.T) {
	for _, capacity := range []int{numShards, 3 * numShards, 100} {
		c := New(capacity)
		ref := newRefCache(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		data := make([]byte, 12*SectorSize)
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
			case op < 4:
				c.PutRange(addr, data[:n*SectorSize], c.Gen())
				ref.put(addr, n)
			case op < 8:
				_, got := c.GetRange(addr, n)
				if want := ref.get(addr, n); got != want {
					t.Fatalf("cap %d step %d: get(%d,%d) hit=%v, reference %v", capacity, step, addr, n, got, want)
				}
			case op < 9:
				c.Update(addr, data[:n*SectorSize])
				ref.update(addr, n)
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
		if got := c.Stats().Evicted; got != int64(len(ref.evicted)) || got == 0 {
			t.Fatalf("cap %d: %d evictions, reference %d (and want some)", capacity, got, len(ref.evicted))
		}
	}
}

// TestHitAndFillAllocs are the cache's allocation gates: a full hit into the
// caller's buffer and a steady-state fill that evicts allocate nothing.
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
