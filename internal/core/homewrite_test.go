package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// smallLogConfig is testConfig with the smallest legal log (one maximal
// record per third), so a few hundred operations wrap it many times, and
// with commits only where the test forces them, so which sectors are due at
// which crossing does not depend on how long the flushes themselves take.
func smallLogConfig() Config {
	cfg := testConfig()
	cfg.LogSectors = 4 + 3*83
	cfg.GroupCommitInterval = time.Hour
	return cfg
}

func newSmallLogVolume(t *testing.T) (*Volume, *disk.Disk) {
	t.Helper()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(d, smallLogConfig())
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return v, d
}

// ntWrite is one observed write request to a name-table copy — or a leader
// read (recordDataReads) — with what the head's positioning depended on when
// it was issued.
type ntWrite struct {
	copyB   bool
	first   int // sector offset into the copy
	sectors int
	addr    int
	start   time.Duration // clock when the request was issued
	seek    time.Duration // its seek to its first sector's cylinder
	elapsed time.Duration // its device time
}

// recordNTWrites chains a recorder in front of the volume's disk observer;
// while *on is set, every write that starts in a name-table copy is appended
// to *out. The observer runs at the end of an operation, so the issue time
// is the clock less the operation's device time, and the seek to the first
// sector is the operation's seek less the settles of the cylinder boundaries
// its transfer crossed.
func recordNTWrites(v *Volume, d *disk.Disk, on *bool, out *[]ntWrite) {
	g, settle := d.Geometry(), d.Params().SeekTime(1)
	ntEnd := v.lay.ntB + v.lay.ntPages*NTPageSectors
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if !*on || !e.Write || e.Addr < v.lay.ntA || e.Addr >= ntEnd {
			return
		}
		crossed := g.Cylinder(e.Addr+e.Sectors-1) - g.Cylinder(e.Addr)
		w := ntWrite{
			first: e.Addr - v.lay.ntA, sectors: e.Sectors, addr: e.Addr,
			start: v.clk.Now() - e.Elapsed(), seek: e.Seek - time.Duration(crossed)*settle, elapsed: e.Elapsed(),
		}
		if e.Addr >= v.lay.ntB {
			w.copyB, w.first = true, e.Addr-v.lay.ntB
		}
		*out = append(*out, w)
	})
}

// positionAt is the timing model's seek plus rotational wait for a request
// at addr in w's cylinder, had it been issued instead of w: w's seek, then
// the wait for addr's slot. It is written out here, not taken from the disk,
// so the ordering rule is checked against the model rather than against the
// code under test.
func (w ntWrite) positionAt(d *disk.Disk, addr int) time.Duration {
	g, p := d.Geometry(), d.Params()
	rev := p.Revolution()
	wait := time.Duration(g.RotationalSlot(addr))*p.SectorTime(g) - (w.start+w.seek)%rev
	if wait < 0 {
		wait += rev
	}
	return w.seek + wait
}

// dueImages lists, in target order, what a flush of third must write home:
// every sector whose newest logged image lives in third, from the logged
// snapshot. This is exactly the set the per-sector loop this sweep replaced
// wrote, so holding the sweep to it is holding it to the old sector count.
func dueImages(c *ntCache, third int) []ntImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	var due []ntImage
	for _, p := range c.pages {
		for j, t := range p.lastThird {
			if t == third {
				due = append(due, ntImage{
					first: uint64(p.id)*NTPageSectors + uint64(j),
					data:  bytes.Clone(p.logged[j*disk.SectorSize : (j+1)*disk.SectorSize]),
				})
			}
		}
	}
	slices.SortFunc(due, func(a, b ntImage) int { return cmp.Compare(a.first, b.first) })
	return due
}

// checkSweep holds the writes one flush issued to the rules of writeNTHome:
// every copy-A request before every copy-B request; in each copy exactly one
// request per maximal run of adjacent images (split only at
// MaxTransferSectors), so both copies cover exactly the expected images;
// cylinders non-decreasing within a copy; and inside a cylinder each request
// the one the head reached soonest among those still to go (the lower
// address on a tie). It returns the number of runs.
func checkSweep(t *testing.T, what string, d *disk.Disk, want []ntImage, got []ntWrite) int {
	t.Helper()
	type run struct{ first, sectors int }
	var runs []run
	for _, im := range want {
		n := len(im.data) / disk.SectorSize
		if k := len(runs) - 1; k >= 0 && runs[k].first+runs[k].sectors == int(im.first) && runs[k].sectors+n <= MaxTransferSectors {
			runs[k].sectors += n
			continue
		}
		runs = append(runs, run{int(im.first), n})
	}
	if len(got) != 2*len(runs) {
		t.Fatalf("%s: %d name-table writes for %d runs of adjacent sectors, want %d", what, len(got), len(runs), 2*len(runs))
	}
	g := d.Geometry()
	for c, ws := range [][]ntWrite{got[:len(runs)], got[len(runs):]} {
		issued := make([]run, len(ws))
		for i, w := range ws {
			if w.copyB != (c == 1) {
				t.Fatalf("%s: write %d = %+v went to the wrong copy (all of copy A first, then copy B)", what, c*len(runs)+i, w)
			}
			issued[i] = run{w.first, w.sectors}
			if i > 0 && g.Cylinder(w.addr) < g.Cylinder(ws[i-1].addr) {
				t.Fatalf("%s: copy %c went back from cylinder %d to %d", what, 'A'+c, g.Cylinder(ws[i-1].addr), g.Cylinder(w.addr))
			}
			for _, o := range ws[i+1:] {
				if g.Cylinder(o.addr) != g.Cylinder(w.addr) {
					break
				}
				if mine, theirs := w.positionAt(d, w.addr), w.positionAt(d, o.addr); theirs < mine || theirs == mine && o.addr < w.addr {
					t.Fatalf("%s: copy %c issued sector %d (head there in %v) while sector %d of the same cylinder was %v away",
						what, 'A'+c, w.addr, mine, o.addr, theirs)
				}
			}
		}
		slices.SortFunc(issued, func(a, b run) int { return cmp.Compare(a.first, b.first) })
		if !slices.Equal(issued, runs) {
			t.Fatalf("%s: copy %c requests %v, want one per run of adjacent sectors %v", what, 'A'+c, issued, runs)
		}
	}
	return len(runs)
}

// checkHome compares both home copies of every image with what should have
// been written.
func checkHome(t *testing.T, what string, v *Volume, d *disk.Disk, want []ntImage) {
	t.Helper()
	for _, im := range want {
		for _, base := range []int{v.lay.ntA, v.lay.ntB} {
			got, err := d.ReadSectors(base+int(im.first), len(im.data)/disk.SectorSize)
			if err != nil || !bytes.Equal(got, im.data) {
				t.Fatalf("%s: home sector %d (copy at %d) does not hold the flushed image (%v)", what, im.first, base, err)
			}
		}
	}
}

// crashModel drives unique-name creates and deletes with a Force every
// eighth step, and knows what a crash may and may not take: acked is the
// live set as of the last Force that returned.
type crashModel struct {
	rng         *rand.Rand
	live, acked map[string][]byte
	names       []string
	step        int
}

func newCrashModel(seed int64) *crashModel {
	return &crashModel{rng: rand.New(rand.NewSource(seed)), live: map[string][]byte{}, acked: map[string][]byte{}}
}

// run mutates until a Force fails and returns that error, or nil after
// maxSteps.
func (m *crashModel) run(t *testing.T, v *Volume, maxSteps int) error {
	t.Helper()
	for ; m.step < maxSteps; m.step++ {
		if len(m.names) > 40 && m.rng.Intn(3) == 0 {
			k := m.rng.Intn(len(m.names))
			name := m.names[k]
			m.names = append(m.names[:k], m.names[k+1:]...)
			if err := v.Delete(name, 0); err != nil {
				t.Fatal(err)
			}
			delete(m.live, name)
		} else {
			name := fmt.Sprintf("crash/d%02d/f%04d", m.rng.Intn(7), m.step)
			data := payload(60+m.rng.Intn(900), byte(m.step))
			if _, err := v.Create(name, data); err != nil {
				t.Fatal(err)
			}
			m.live[name], m.names = data, append(m.names, name)
		}
		if m.step%8 == 7 {
			if err := v.Force(); err != nil {
				return err
			}
			m.acked = make(map[string][]byte, len(m.live))
			for k, d := range m.live {
				m.acked[k] = d
			}
		}
	}
	return nil
}

// TestHomeWriteSweep is the gate that keeps name-table write-back a sweep:
// at every third crossing of a small-log volume the due sectors go to copy
// A in one pass of coalesced requests — cylinders ascending, and inside a
// cylinder the request the head reaches soonest next — and then to copy B,
// never A,B,A,B one sector at a time, and nothing but the due sectors goes.
// The same holds for flushAll at page granularity.
func TestHomeWriteSweep(t *testing.T) {
	v, d := newSmallLogVolume(t)
	var on bool
	var got []ntWrite
	recordNTWrites(v, d, &on, &got)

	crossings, sectors, runs, merged := 0, 0, 0, 0
	inner := v.log.FlushHook
	v.log.FlushHook = func(third int) (int, error) {
		want := dueImages(v.cache, third)
		before := v.Stats().Cache
		on, got = true, got[:0]
		n, err := inner(third)
		on = false
		if err != nil {
			return n, err
		}
		what := fmt.Sprintf("crossing %d into third %d", crossings, third)
		r := checkSweep(t, what, d, want, got)
		checkHome(t, what, v, d, want)
		if after := v.Stats().Cache; after.HomeWrites-before.HomeWrites != 2*len(want) || after.HomeWriteOps-before.HomeWriteOps != 2*r {
			t.Fatalf("%s: counters moved by %d sectors in %d I/Os, want %d in %d", what,
				after.HomeWrites-before.HomeWrites, after.HomeWriteOps-before.HomeWriteOps, 2*len(want), 2*r)
		}
		if len(dueImages(v.cache, third)) != 0 {
			t.Fatalf("%s: marks left set after a successful flush", what)
		}
		crossings++
		sectors += len(want)
		runs += r
		if r < len(want) {
			merged++
		}
		return n, nil
	}
	if err := newCrashModel(14).run(t, v, 1600); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d crossings flushed %d sectors in %d runs per copy", crossings, sectors, runs)
	// The per-sector loop this replaced wrote exactly the due sectors: on
	// the same seed, 502 to each copy in 74 crossings under the fixed-width
	// entry values, and under the varint ones the due sets of these 64
	// crossings add up to 288. Nothing extra may ride along.
	if crossings != 64 || sectors != 288 {
		t.Fatalf("%d crossings flushed %d sectors, the due sets hold 288 in 64", crossings, sectors)
	}
	if merged < 3 {
		t.Fatalf("only %d crossings had adjacent due sectors to merge; the workload no longer tests coalescing", merged)
	}

	// flushAll: whole dirty pages, neighbouring pages in one request.
	v.log.FlushHook = inner
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	var want []ntImage
	for _, id := range sortedKeys(v.cache.pages) {
		if p := v.cache.pages[id]; p.dirty {
			want = append(want, ntImage{first: uint64(id) * NTPageSectors, data: p.cur})
		}
	}
	on, got = true, got[:0]
	if err := v.cache.flushAll(); err != nil {
		t.Fatal(err)
	}
	on = false
	if r := checkSweep(t, "flushAll", d, want, got); len(want) < 8 || r >= len(want) {
		t.Fatalf("flushAll wrote %d dirty pages in %d runs per copy; want several pages, some of them neighbours", len(want), r)
	}
	checkHome(t, "flushAll", v, d, want)
}

// checkRecovered mounts the revived disk and holds it to the model: every
// file acked and not deleted since is there with its content, Verify is
// clean, a scrub loses nothing, and the two name-table copies agree.
func (m *crashModel) checkRecovered(t *testing.T, d *disk.Disk) {
	t.Helper()
	v, _, err := Mount(d, smallLogConfig())
	if err != nil {
		t.Fatalf("mount after the interrupted sweep: %v", err)
	}
	for name, want := range m.acked {
		if _, still := m.live[name]; !still {
			continue // deleted after the ack; either outcome is legal
		}
		f, err := v.Open(name, 0)
		if err != nil {
			t.Fatalf("acked file %s lost: %v", name, err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acked file %s torn (%v)", name, err)
		}
	}
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("verify after recovery: %v %v", err, vs.Problems)
	}
	st, err := v.Scrub()
	if err != nil || st.NTLost != 0 || len(st.Problems) != 0 {
		t.Fatalf("scrub after recovery: %v lost=%d %v", err, st.NTLost, st.Problems)
	}
	for off := 0; off < v.lay.ntPages*NTPageSectors; off += MaxTransferSectors {
		a, errA := d.ReadSectors(v.lay.ntA+off, MaxTransferSectors)
		b, errB := d.ReadSectors(v.lay.ntB+off, MaxTransferSectors)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("name-table copies differ at sector offset %d after recovery and scrub (%v, %v)", off, errA, errB)
		}
	}
}

// atCrossing replaces the volume's flush hook: crossing number k (counting
// those with at least two runs of due sectors) goes to fn, the rest pass
// through.
func atCrossing(v *Volume, k int, fn func(third int, want []ntImage) (int, error)) {
	inner := v.log.FlushHook
	seen := 0
	v.log.FlushHook = func(third int) (int, error) {
		want := dueImages(v.cache, third)
		if len(want) < 2 || want[len(want)-1].first-want[0].first < uint64(len(want)) {
			return inner(third)
		}
		if seen++; seen != k {
			return inner(third)
		}
		return fn(third, want)
	}
}

// TestCrashBetweenHomeSweeps halts the device after the complete copy-A
// sweep of a third crossing, before the first copy-B write. Copy A then
// holds the new images and copy B the old ones; the log still holds them
// too (the anchor moves only after the flush), so the mount redoes both
// copies, nothing acked is lost, and the scrub that follows finds no page
// lost and the copies equal.
func TestCrashBetweenHomeSweeps(t *testing.T) {
	v, d := newSmallLogVolume(t)
	m := newCrashModel(31)
	var due []ntImage
	atCrossing(v, 6, func(third int, want []ntImage) (int, error) {
		due = want
		d.SetWriteFault(func(addr, n int) *disk.WriteFault {
			if addr >= v.lay.ntB && addr < v.lay.vamBase {
				return &disk.WriteFault{Halt: true}
			}
			return nil
		})
		return v.cache.flushThird(third)
	})
	if err := m.run(t, v, 4000); err == nil {
		t.Fatal("the device never halted: no qualifying third crossing")
	}
	v.Crash()
	d.Revive()
	d.SetWriteFault(nil)
	stale := 0
	for _, im := range due {
		a, _ := d.ReadSectors(v.lay.ntA+int(im.first), 1)
		b, _ := d.ReadSectors(v.lay.ntB+int(im.first), 1)
		if !bytes.Equal(a, im.data) {
			t.Fatalf("copy A of sector %d does not hold the swept image", im.first)
		}
		if !bytes.Equal(b, im.data) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("copy B already held all %d due sectors: the halt did not fall between the sweeps", len(due))
	}
	m.checkRecovered(t, d)
}

// TestHomeWriteFaultRedo fails one write in the middle of a sweep — in the
// copy-A pass and in the copy-B pass. The flush must report the error with
// every mark still set, sectors already written included, and the flush that
// follows must write the same sectors again as one complete sweep. The
// volume, demoted by the fault, still recovers everything acked.
func TestHomeWriteFaultRedo(t *testing.T) {
	for _, pass := range []string{"A", "B"} {
		t.Run("mid-"+pass, func(t *testing.T) {
			v, d := newSmallLogVolume(t)
			var on bool
			var got []ntWrite
			recordNTWrites(v, d, &on, &got)
			m := newCrashModel(32)
			atCrossing(v, 6, func(third int, want []ntImage) (int, error) {
				writes := 0
				d.SetWriteFault(func(addr, n int) *disk.WriteFault {
					inB := addr >= v.lay.ntB && addr < v.lay.vamBase
					if inA := addr >= v.lay.ntA && addr < v.lay.ntB; !inA && !inB || inB != (pass == "B") {
						return nil
					}
					if writes++; writes == 2 {
						return &disk.WriteFault{}
					}
					return nil
				})
				n, err := v.cache.flushThird(third)
				d.SetWriteFault(nil)
				if err == nil {
					t.Fatalf("flush survived the injected fault (%d sectors)", n)
				}
				if still := dueImages(v.cache, third); len(still) != len(want) {
					t.Fatalf("failed flush left %d of %d marks set", len(still), len(want))
				}
				on, got = true, got[:0]
				n, rerr := v.cache.flushThird(third)
				on = false
				if rerr != nil || n != len(want) {
					t.Fatalf("redo flushed %d of %d sectors: %v", n, len(want), rerr)
				}
				checkSweep(t, "redo", d, want, got)
				checkHome(t, "redo", v, d, want)
				if len(dueImages(v.cache, third)) != 0 {
					t.Fatal("redo left marks set")
				}
				return 0, err
			})
			if err := m.run(t, v, 4000); err == nil {
				t.Fatal("the fault never fired: no qualifying third crossing")
			}
			v.Crash()
			d.Revive()
			m.checkRecovered(t, d)
		})
	}
}
