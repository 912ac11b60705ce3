package bufcache

import (
	"bytes"
	"testing"
)

// TestHeldFramesArePinned: a held sector is what reads get, and nothing but
// Release or Invalidate takes it away — not replacement under a scan many
// times the cache, not a fill racing it with the disk's older bytes, not
// the damage hook, not DropAll.
func TestHeldFramesArePinned(t *testing.T) {
	c := New(64)
	if !c.Hold(1000, sector(7), sector(8)) {
		t.Fatal("Hold refused on an empty cache")
	}
	for a := 0; a < 640; a += 4 { // ten cache-fulls of reads
		fill(c, a, 1, 2, 3, 4)
	}
	fill(c, 1000, 9, 9) // a fill that read the platter's stale bytes
	c.Damaged(1000, 2)
	c.DropAll()
	got, ok := c.GetRange(1000, 2)
	if !ok || !bytes.Equal(got, append(sector(7), sector(8)...)) {
		t.Fatalf("held sectors lost or changed: hit %v", ok)
	}
	if held, k := c.HeldRun(1000, 4); !held || k != 2 {
		t.Fatalf("HeldRun(1000, 4) = %v, %d; want true, 2", held, k)
	}
	if held, k := c.HeldRun(998, 4); held || k != 2 {
		t.Fatalf("HeldRun(998, 4) = %v, %d; want false, 2", held, k)
	}
	if st := c.Stats(); st.Held != 2 {
		t.Fatalf("Held = %d, want 2", st.Held)
	}
	c.Update(1001, sector(5)) // a write over a held sector refreshes it
	if held := c.Held(nil); len(held) != 2 || !bytes.Equal(heldData(held, 1001), sector(5)) {
		t.Fatal("Update did not refresh the held frame")
	}
	c.Release(1000, 1)
	if heldData(c.Held(nil), 1000) != nil {
		t.Fatal("a released sector is still held")
	}
	if _, ok := c.GetRange(1000, 1); ok {
		t.Fatal("a released sector stayed resident (no write-allocate)")
	}
	c.Invalidate(1001, 1) // a free before the write went out
	if st := c.Stats(); st.Held != 0 || len(c.Held(nil)) != 0 {
		t.Fatalf("Invalidate left a held frame: %+v", st)
	}
}

// heldData returns the frame of sector addr among held, nil if absent.
func heldData(held []Sector, addr int) []byte {
	for _, h := range held {
		if h.Addr == addr {
			return h.Data
		}
	}
	return nil
}

// TestHoldCap: held frames stop at half the capacity; a Hold that would pass
// it holds nothing, and one over sectors already held takes no more frames.
func TestHoldCap(t *testing.T) {
	c := New(64)
	half := make([]byte, 32*SectorSize)
	if !c.Hold(0, half) {
		t.Fatal("Hold of half the capacity refused")
	}
	if c.Hold(100, sector(1)) {
		t.Fatal("Hold past half the capacity accepted")
	}
	if heldData(c.Held(nil), 100) != nil {
		t.Fatal("a refused Hold held its sector")
	}
	c.Release(0, 2)
	if !c.Hold(4, sector(3), sector(3)) {
		t.Fatal("Hold of two sectors, two under the cap, refused")
	}
	if st := c.Stats(); st.Held != 30 || st.Size != 30 {
		t.Fatalf("Held %d, Size %d; want 30, 30: the rewrite held in place", st.Held, st.Size)
	}
	if got := c.Held(nil); len(got) != 30 {
		t.Fatalf("Held has %d sectors, want 30", len(got))
	}
}

// TestHoldTakesResidentFrame: a sector resident from a read is held in place,
// and the protected list is never raided for a frame.
func TestHoldTakesResidentFrame(t *testing.T) {
	c := New(64)
	fill(c, 16, 1)
	c.GetRange(16, 1) // promote
	if !c.Hold(16, sector(2)) {
		t.Fatal("Hold refused")
	}
	if st := c.Stats(); st.Size != 1 || st.Held != 1 {
		t.Fatalf("Size %d, Held %d; want 1, 1", st.Size, st.Held)
	}
	if got, _ := c.GetRange(16, 1); !bytes.Equal(got, sector(2)) {
		t.Fatal("held in place with the old bytes")
	}
}

// TestHoldAllocs: holding, reading, listing (into a scratch sized for it)
// and releasing held frames allocate nothing.
func TestHoldAllocs(t *testing.T) {
	c := New(256)
	data := make([]byte, 8*SectorSize)
	buf := make([]byte, 8*SectorSize)
	held := make([]Sector, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		c.Hold(40, data[:SectorSize], data[SectorSize:])
		c.GetRangeInto(40, buf)
		held = c.Held(held[:0])
		c.Release(40, 8)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per hold/read/release", allocs)
	}
}

// TestHeldListsEverySectorInOrder: Held lists the held sectors of every
// shard in address order, whatever order they were held in and whatever
// else is resident, and neither a released nor an invalidated sector.
func TestHeldListsEverySectorInOrder(t *testing.T) {
	c := New(256)
	fill(c, 300, 1, 2, 3) // resident, not held
	want := []int{3, 17, 40, 41, 42, 95, 130, 204}
	for _, h := range []struct{ addr, n int }{{204, 1}, {40, 3}, {3, 1}, {130, 1}, {95, 1}, {17, 1}} {
		if !c.Hold(h.addr, make([]byte, h.n*SectorSize)) {
			t.Fatalf("Hold(%d) refused", h.addr)
		}
	}
	c.Hold(500, sector(1))
	c.Hold(501, sector(2))
	c.Release(500, 1)
	c.Invalidate(501, 1)
	got := c.Held(nil)
	shards := map[int]bool{}
	for i, h := range got {
		if i >= len(want) || h.Addr != want[i] {
			t.Fatalf("Held listed %v, want the sectors %v", got, want)
		}
		shards[h.Addr%numShards] = true
	}
	if len(got) != len(want) || len(shards) < 3 {
		t.Fatalf("Held listed %d sectors in %d shards, want %d in at least 3", len(got), len(shards), len(want))
	}
	if got := c.Held(got[:2]); len(got) != 2+len(want) || got[2].Addr != 3 {
		t.Fatal("Held did not append after dst's own sectors")
	}
}
