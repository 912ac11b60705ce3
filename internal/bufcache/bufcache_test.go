package bufcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func sector(b byte) []byte {
	buf := make([]byte, SectorSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func fill(c *Cache, addr int, sectors ...byte) {
	data := make([]byte, 0, len(sectors)*SectorSize)
	for _, b := range sectors {
		data = append(data, sector(b)...)
	}
	if !c.PutRange(addr, data, c.Gen()) {
		panic("fill aborted")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(64)
	fill(c, 100, 1, 2, 3)
	got, ok := c.GetRange(100, 3)
	if !ok {
		t.Fatal("expected full hit")
	}
	want := append(append(sector(1), sector(2)...), sector(3)...)
	if !bytes.Equal(got, want) {
		t.Fatal("cached data mismatch")
	}
	if _, ok := c.GetRange(99, 2); ok {
		t.Fatal("partial range must miss")
	}
	st := c.Stats()
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3", st.Hits)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
	if st.Size != 3 {
		t.Fatalf("size = %d, want 3", st.Size)
	}
}

func TestUpdateWriteThrough(t *testing.T) {
	c := New(64)
	fill(c, 10, 1, 1)
	c.Update(10, append(sector(7), sector(7)...))
	got, ok := c.GetRange(10, 2)
	if !ok {
		t.Fatal("expected hit after update")
	}
	if got[0] != 7 || got[SectorSize] != 7 {
		t.Fatal("update did not reach resident frames")
	}
	// Update of an absent sector must not allocate a frame.
	c.Update(500, sector(9))
	if _, ok := c.GetRange(500, 1); ok {
		t.Fatal("update write-allocated an absent sector")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(64)
	fill(c, 20, 1, 2, 3, 4)
	c.Invalidate(21, 2)
	if _, ok := c.GetRange(21, 1); ok {
		t.Fatal("invalidated sector still resident")
	}
	if _, ok := c.GetRange(20, 1); !ok {
		t.Fatal("neighbouring sector dropped")
	}
	if st := c.Stats(); st.Invalidated != 2 {
		t.Fatalf("invalidated = %d, want 2", st.Invalidated)
	}
}

func TestStaleFillAborted(t *testing.T) {
	c := New(64)
	gen := c.Gen()
	// A mutation lands while the fill's disk read is in flight.
	c.Update(999, sector(0))
	if c.PutRange(30, sector(5), gen) {
		t.Fatal("fill with stale generation installed frames")
	}
	if _, ok := c.GetRange(30, 1); ok {
		t.Fatal("stale fill left a frame behind")
	}
}

func TestEviction(t *testing.T) {
	// Capacity numShards means one frame per shard: a second fill of the
	// same shard must evict the older one.
	c := New(numShards)
	fill(c, 0, 1)         // shard 0
	fill(c, numShards, 2) // shard 0 again
	if _, ok := c.GetRange(0, 1); ok {
		t.Fatal("LRU frame survived eviction")
	}
	if _, ok := c.GetRange(numShards, 1); !ok {
		t.Fatal("newest frame evicted")
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.Evicted)
	}
}

func TestDropAll(t *testing.T) {
	c := New(64)
	fill(c, 0, 1, 2, 3)
	c.DropAll()
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("size = %d after DropAll", st.Size)
	}
	if _, ok := c.GetRange(0, 1); ok {
		t.Fatal("a frame survived DropAll")
	}
}

// reserve lends n frames for sectors addr onward and fills them with b.
func reserve(t *testing.T, c *Cache, addr, n int, b byte) []int32 {
	t.Helper()
	bufs, slots := make([][]byte, n), make([]int32, n)
	if got := c.Reserve(addr, bufs, slots); got != n {
		t.Fatalf("Reserve(%d, %d) lent %d frames", addr, n, got)
	}
	for _, buf := range bufs {
		copy(buf, sector(b))
	}
	return slots
}

// TestReserveCommit: reserved frames are under no address until Commit gives
// them one; a failed read, a mutation since gen, and a sector that became
// resident meanwhile all send them back to the free chain instead.
func TestReserveCommit(t *testing.T) {
	c := New(64)
	gen := c.Gen()
	slots := reserve(t, c, 200, 4, 9)
	if _, ok := c.GetRange(200, 1); ok {
		t.Fatal("a reserved frame is visible before Commit")
	}
	c.Commit(200, slots, gen, true)
	if got, ok := c.GetRange(200, 4); !ok || got[0] != 9 || got[4*SectorSize-1] != 9 {
		t.Fatal("committed read-ahead not resident")
	}
	if st := c.Stats(); st.Size != 4 || st.ReadAheadUsed != 4 {
		t.Fatalf("size %d used %d, want 4 and 4", st.Size, st.ReadAheadUsed)
	}

	c.Commit(300, reserve(t, c, 300, 2, 1), gen, false) // the read failed
	gen = c.Gen()
	slots = reserve(t, c, 310, 2, 2)
	c.Invalidate(0, 1) // a mutation lands while the read is in flight
	c.Commit(310, slots, gen, true)
	gen = c.Gen()
	slots = reserve(t, c, 320, 2, 3)
	fill(c, 320, 7) // a demand fill got there first
	c.Commit(320, slots, gen, true)
	for _, a := range []int{300, 301, 310, 311} {
		if _, ok := c.GetRange(a, 1); ok {
			t.Fatalf("sector %d resident after an abandoned read-ahead", a)
		}
	}
	if got, _ := c.GetRange(320, 2); got == nil || got[0] != 7 || got[SectorSize] != 3 {
		t.Fatal("want the resident sector kept and the one after it installed")
	}
	// Every frame is accounted for: the whole capacity can still be filled.
	c.DropAll()
	for a := 0; a < 64; a++ {
		fill(c, a, 1)
	}
	if st := c.Stats(); st.Size != 64 || st.Evicted != 0 {
		t.Fatalf("after abandoned loans: size %d evicted %d, want 64 and 0", st.Size, st.Evicted)
	}
}

// TestDropAllSparesReservedFrames: a frame out on loan is not handed to
// anybody else by DropAll, and comes back once its read is over.
func TestDropAllSparesReservedFrames(t *testing.T) {
	c := New(numShards) // one frame per shard
	gen := c.Gen()
	slots := reserve(t, c, 0, 1, 5)
	c.DropAll()
	fill(c, numShards, 1) // same shard: its only frame is out
	if _, ok := c.GetRange(numShards, 1); ok {
		t.Fatal("a demand fill was given a frame that is out on loan")
	}
	c.Commit(0, slots, gen, true) // stale: DropAll bumped the generation
	if _, ok := c.GetRange(0, 1); ok {
		t.Fatal("a read-ahead that raced DropAll was installed")
	}
	fill(c, numShards, 2)
	if _, ok := c.GetRange(numShards, 1); !ok {
		t.Fatal("the frame did not come back after Commit")
	}
}

// TestConcurrentFillUpdateInvalidate hammers the cache from readers, demand
// and read-ahead fillers, write-through updaters, invalidators and the
// occasional DropAll; run under -race. The invariant
// checked is that a reader never observes a torn sector: every sector is
// filled and updated with uniform bytes, so any mixed-byte read is a tear.
func TestConcurrentFillUpdateInvalidate(t *testing.T) {
	c := New(128)
	const addrs = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs, slots := make([][]byte, 3), make([]int32, 3)
			for i := 0; i < 500; i++ {
				addr := (w*13 + i*7) % addrs
				switch i % 5 {
				case 0:
					c.PutRange(addr, sector(byte(i)), c.Gen())
				case 4:
					// A read-ahead: the "device" fills the lent frames with
					// no lock held, as a disk request does.
					gen := c.Gen()
					k := c.Reserve(addr, bufs, slots)
					for _, buf := range bufs[:k] {
						copy(buf, sector(byte(i)))
					}
					if i%50 == 4 {
						c.DropAll()
					}
					c.Commit(addr, slots[:k], gen, i%3 != 0)
				case 1:
					c.Update(addr, sector(byte(i)))
				case 2:
					c.Invalidate(addr, 1)
				default:
					if buf, ok := c.GetRange(addr, 1); ok {
						for _, b := range buf {
							if b != buf[0] {
								panic(fmt.Sprintf("torn sector at %d", addr))
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
