package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
)

// One arm, one reader (DESIGN §17): the tests that hold the check-and-repair
// passes to a single driver reading in head order.

// spreadImage fills a volume so that name order and address order disagree
// and the leaders span the drive on both sides of the central metadata:
// files of mixed sizes, small and big, created under shuffled names. It
// returns the quiesced volume (everything home, caches cold).
func spreadImage(t testing.TB, cfg Config, files int) (*Volume, *disk.Disk) {
	t.Helper()
	v, d, _ := newTestVolumeWith(t, cfg)
	rng := rand.New(rand.NewSource(41))
	for _, i := range rng.Perm(files) {
		size := 200 + rng.Intn(3000)
		if i%4 == 0 {
			size = 30_000 + rng.Intn(40_000)
		}
		if _, err := v.Create(fmt.Sprintf("arm/d%d/f%04d", i%5, i), payload(size, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}
	return v, d
}

// recordDataReads chains a recorder in front of the volume's disk observer:
// every read in the data region — on a check pass, a leader read — is
// appended to *out with its issue time and its seek (see recordNTWrites).
func recordDataReads(v *Volume, d *disk.Disk, out *[]ntWrite) {
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if !e.Write && v.lay.region(e.Addr) == regionData {
			*out = append(*out, ntWrite{addr: e.Addr, sectors: e.Sectors, start: v.clk.Now() - e.Elapsed(), seek: e.Seek, elapsed: e.Elapsed()})
		}
	})
}

// checkHeadOrder holds a leader pass's reads to readLeaders' order. A read
// of the sector just read is a retry in place and is set aside; of the rest,
// no sector is read twice, cylinders never decrease, and inside a cylinder
// each read is of the leader the head reached soonest among those still to
// go (the lower address on a tie), by the timing model written out in
// positionAt. It returns the sectors in the order they were first read.
func checkHeadOrder(t *testing.T, what string, d *disk.Disk, reads []ntWrite) []int {
	t.Helper()
	var picks []ntWrite
	for _, r := range reads {
		if n := len(picks); n == 0 || picks[n-1].addr != r.addr {
			picks = append(picks, r)
		}
	}
	g := d.Geometry()
	seen := make(map[int]bool, len(picks))
	addrs := make([]int, len(picks))
	for i, w := range picks {
		if seen[w.addr] {
			t.Fatalf("%s: sector %d read again after other reads", what, w.addr)
		}
		seen[w.addr], addrs[i] = true, w.addr
		if i > 0 && g.Cylinder(w.addr) < g.Cylinder(picks[i-1].addr) {
			t.Fatalf("%s: read %d went back from cylinder %d to %d", what, i, g.Cylinder(picks[i-1].addr), g.Cylinder(w.addr))
		}
		for _, o := range picks[i+1:] {
			if g.Cylinder(o.addr) != g.Cylinder(w.addr) {
				break
			}
			if mine, theirs := w.positionAt(d, w.addr), w.positionAt(d, o.addr); theirs < mine || theirs == mine && o.addr < w.addr {
				t.Fatalf("%s: read sector %d (head there in %v) while sector %d of the same cylinder was %v away",
					what, w.addr, mine, o.addr, theirs)
			}
		}
	}
	return addrs
}

// TestScrubLeaderSweepHeadOrder: a clean Scrub reads every leader once and in
// head order whatever its width — cylinders never decrease, and inside a
// cylinder each read is of the leader the head reaches soonest — and the
// whole pass moves the arm a long way only a handful of times. A pass that
// follows the name order, or deals the leaders to workers, does neither; one
// in address order waits most of a revolution per track.
func TestScrubLeaderSweepHeadOrder(t *testing.T) {
	const files = 240 // one stretch of the pass (verifyChunk): every leader left is a candidate
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.ScrubWorkers = workers
		v, d := spreadImage(t, cfg, files)
		var reads []ntWrite
		recordDataReads(v, d, &reads)
		before := d.Stats()
		st, err := v.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if st.Repaired() != 0 || len(st.Problems) != 0 {
			t.Fatalf("workers=%d: clean scrub repaired or reported: %+v", workers, st)
		}
		if st.LeadersChecked != files || len(reads) != files {
			t.Fatalf("workers=%d: %d leaders checked in %d data-region reads, want %d in %d", workers, st.LeadersChecked, len(reads), files, files)
		}
		if read := checkHeadOrder(t, fmt.Sprintf("workers=%d", workers), d, reads); len(read) != files {
			t.Fatalf("workers=%d: %d distinct leaders read, want %d", workers, len(read), files)
		}
		// Root pair, log, the name table's two copies, then one crossing of
		// the data region: an arm that sweeps has no more long moves to make.
		if seeks := d.Stats().Sub(before).Seeks; seeks > 8 {
			t.Fatalf("workers=%d: clean scrub made %d long seeks, want at most 8", workers, seeks)
		}
		if st.LeaderElapsed <= 0 || st.NTElapsed <= 0 || st.NTElapsed+st.LeaderElapsed > st.Elapsed {
			t.Fatalf("workers=%d: name-table pass %v + leader pass %v of %v", workers, st.NTElapsed, st.LeaderElapsed, st.Elapsed)
		}
	}
}

// TestScrubLeaderSweepPlantedDamage: what the optimistic sweep cannot vouch
// for still reaches the locked repair path — a decayed leader (the read
// fails), a rotted one (garbage that reads fine) and a stale one (a valid
// leader, of another incarnation) are each rewritten from the entry, once.
func TestScrubLeaderSweepPlantedDamage(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubWorkers = 2
	v, d := spreadImage(t, cfg, 60)
	leader := func(name string) (*Entry, int) {
		e, err := v.Stat(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := e.LeaderAddr()
		return e, addr
	}
	_, decayed := leader("arm/d1/f0001")
	_, rotted := leader("arm/d2/f0002")
	e, stale := leader("arm/d3/f0003")
	d.CorruptSectors(decayed, 1)
	d.SmashSector(rotted, payload(disk.SectorSize, 0x3C), nil)
	old := *e
	old.UID--
	d.SmashSector(stale, encodeLeader(&old), nil)

	st, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeadersChecked != 60 || st.LeadersRepaired != 3 || len(st.Problems) != 0 {
		t.Fatalf("scrub over three planted leader faults: %+v", st)
	}
	if st2, err := v.Scrub(); err != nil || st2.Repaired() != 0 {
		t.Fatalf("second scrub: %+v, %v", st2, err)
	}
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after scrub: %v %v", err, vs.Problems)
	}
}

// TestCheckPassSimTimeRepeats: the determinism contract covers virtual time
// at every width. Five Verifies, five scrubs and five salvages of clones of
// one image take exactly the same simulated time, at widths 1, 2 and 8 —
// which holds only while no pool worker touches the device, since two
// goroutines sharing the arm make every seek a scheduling accident, and only
// while the overlapped passes put on the clock what the lane computes from
// the device order and the balanced CPU, not what the pool's goroutines
// happened to take.
func TestCheckPassSimTimeRepeats(t *testing.T) {
	v, d := spreadImage(t, testConfig(), 240)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	clean := cloneDisk(d)
	destroyNameTable(d, v)
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig()
		cfg.ScrubWorkers, cfg.CheckWorkers = workers, workers
		var verify, scrub, sweep, salvage []time.Duration
		for run := 0; run < 5; run++ {
			mv, _, err := Mount(cloneDisk(clean), cfg)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := mv.Verify()
			if err != nil {
				t.Fatal(err)
			}
			verify = append(verify, vs.Elapsed)
			st, err := mv.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			scrub = append(scrub, st.Elapsed)
			mv.Crash()

			sv, sst, err := Salvage(cloneDisk(d), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sweep = append(sweep, sst.SweepElapsed)
			salvage = append(salvage, sst.Elapsed)
			sv.Crash()
		}
		for _, series := range [][]time.Duration{verify, scrub, sweep, salvage} {
			for _, got := range series[1:] {
				if got != series[0] {
					t.Fatalf("workers=%d: simulated time differs between runs of one image:\nverify        %v\nscrub         %v\nsalvage sweep %v\nsalvage       %v",
						workers, verify, scrub, sweep, salvage)
				}
			}
		}
	}
}

// TestScrubLeaderSweepUnderChurn (run under -race by verify.sh): Scrub loops
// while files are deleted, forced and created again under the same name —
// usually into the pages just freed, so the sector a snapshot names holds
// another incarnation's leader by the time the sweep reads it — extended,
// and created afresh. A leader that no longer matches the snapshot must be
// looked up again under the monitor, never "repaired" from the snapshot: on
// healthy media nothing is repaired, nothing reported, and Verify finds the
// volume whole. The churn reads no data, so every data-region read is the
// scrub's, and the reads beyond the leaders it counted checked are the
// suspects it sent down the locked path; a run that saw none proved nothing.
func TestScrubLeaderSweepUnderChurn(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubWorkers = 4
	v, d := spreadImage(t, cfg, 80)
	var dataReads atomic.Int64
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if !e.Write && v.lay.region(e.Addr) == regionData {
			dataReads.Add(1)
		}
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			live := map[string]*File{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn/g%d/f%02d", g, rng.Intn(12))
				var err error
				switch f := live[name]; {
				case f == nil:
					live[name], err = v.Create(name, payload(100+rng.Intn(2000), byte(i)))
				case rng.Intn(3) == 0:
					err = f.Extend(1 + rng.Intn(6))
				default:
					// Gone, its pages free again at the force, and back.
					if err = v.Delete(name, 0); err == nil {
						err = v.Force()
					}
					if err == nil {
						live[name], err = v.Create(name, payload(100+rng.Intn(2000), byte(i)))
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("churn %d, op %d on %s: %v", g, i, name, err)
					return
				}
			}
		}(g)
	}
	scrub := func(pass int) int64 {
		before := dataReads.Load()
		st, err := v.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if st.LeadersRepaired != 0 || len(st.Problems) != 0 {
			t.Fatalf("pass %d repaired a healthy leader or reported a problem: %+v", pass, st)
		}
		return dataReads.Load() - before - int64(st.LeadersChecked)
	}
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }); wg.Wait() }
	defer halt()
	passes, suspects := 0, int64(0)
	for ; suspects < 5 && passes < 5000 && len(errCh) == 0; passes++ {
		suspects += scrub(passes)
	}
	halt()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if suspects == 0 {
		t.Fatalf("%d passes and the churn never overtook a snapshot: nothing was tested", passes)
	}
	scrub(passes) // and once over the settled volume
	if vs, err := v.Verify(); err != nil || len(vs.Problems) != 0 {
		t.Fatalf("Verify after %d scrub passes under churn: %v %v", passes, err, vs.Problems)
	}
}

// TestSalvageManifestAppendOnly: a checkpoint writes the manifest's new tail,
// not the manifest. Up to the rebuild's first write into copy A, name-table
// copy B takes at most the manifest's own sectors plus one rewritten partial
// sector per checkpoint; rewriting it whole every 32 chunks was quadratic.
func TestSalvageManifestAppendOnly(t *testing.T) {
	v, d := spreadImage(t, testConfig(), 400)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)
	// The write-fault hook, injecting nothing, is the write observer Salvage
	// leaves in place (the op observer becomes its new volume's).
	lay := v.lay
	written, sweeping := 0, true
	d.SetWriteFault(func(addr, n int) *disk.WriteFault {
		switch lay.region(addr) {
		case regionNTA:
			sweeping = false
		case regionNTB:
			if sweeping {
				written += n
			}
		}
		return nil
	})
	sv, st, err := Salvage(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Crash()
	if st.FilesRecovered != 400 || sweeping {
		t.Fatalf("salvage recovered %d of 400 files (rebuild seen: %v)", st.FilesRecovered, !sweeping)
	}
	manifest := (4*(st.CandidateLeaders+st.DamagedSectors) + disk.SectorSize - 1) / disk.SectorSize
	if manifest < 3 || st.Checkpoints < 10 {
		t.Fatalf("image too small to tell: %d manifest sectors, %d checkpoints", manifest, st.Checkpoints)
	}
	if written > manifest+st.Checkpoints {
		t.Fatalf("sweep wrote %d sectors into name-table copy B for a %d-sector manifest over %d checkpoints",
			written, manifest, st.Checkpoints)
	}
}

// BenchmarkScrubPass is one clean Scrub of a populated small volume at the
// benchmark's width; sim-s/scrub is what the pass costs on the virtual clock
// (9.7 s while the leaders were read in name order, 6.7 s as one sweep when
// 4.0 s of it was the log's record-copy audit, a sector at a time; 2.8 s
// while the name-table pass swept all 256 pages and the leaders were read in
// address order, 1.3 s over the allocated pages in head order).
func BenchmarkScrubPass(b *testing.B) {
	cfg := testConfig()
	cfg.ScrubWorkers = 2
	v, _ := spreadImage(b, cfg, 240)
	var sim time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := v.Scrub()
		if err != nil {
			b.Fatal(err)
		}
		sim += st.Elapsed
	}
	b.ReportMetric(sim.Seconds()/float64(b.N), "sim-s/scrub")
}
