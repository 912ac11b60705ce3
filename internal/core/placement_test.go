package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/disk"
	"repro/internal/vam"
)

// TestSmallCreatesBesideMetadata: on the centre layout small files fill the
// small-file area from the metadata down, so 200 small creates, forced every
// 25, all start within one cylinder below the log, each below the last. Under
// EdgePlacement the metadata is at the front and the same creates start at
// dataLo and ascend.
func TestSmallCreatesBesideMetadata(t *testing.T) {
	for _, edge := range []bool{false, true} {
		t.Run(fmt.Sprintf("edge=%v", edge), func(t *testing.T) {
			cfg := testConfig()
			cfg.EdgePlacement = edge
			v, d, _ := newTestVolumeWith(t, cfg)
			g := d.Geometry()
			cyl := g.SectorsPerTrack * g.TracksPerCylinder
			prev := -1
			for i := 0; i < 200; i++ {
				f, err := v.Create(fmt.Sprintf("place/f%03d", i), payload(100+i, byte(i)))
				if err != nil {
					t.Fatal(err)
				}
				start := int(f.e.Runs[0].Start)
				switch {
				case !edge && (start >= v.lay.logBase || start < v.lay.logBase-cyl):
					t.Fatalf("create %d starts at %d; want within one cylinder (%d sectors) below the log at %d", i, start, cyl, v.lay.logBase)
				case !edge && prev >= 0 && start >= prev:
					t.Fatalf("create %d starts at %d, not below the previous one at %d", i, start, prev)
				case edge && i == 0 && start != v.lay.dataLo:
					t.Fatalf("first create starts at %d; want dataLo %d", start, v.lay.dataLo)
				case edge && i > 0 && start <= prev:
					t.Fatalf("create %d starts at %d, not above the previous one at %d", i, start, prev)
				}
				prev = start
				if i%25 == 24 {
					if err := v.Force(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestModelInfoFollowsFirstSmallCreate pins the §6 model's data cylinder to
// where a fresh volume's first small create lands, under both placements.
func TestModelInfoFollowsFirstSmallCreate(t *testing.T) {
	for _, edge := range []bool{false, true} {
		cfg := testConfig()
		cfg.EdgePlacement = edge
		v, d, _ := newTestVolumeWith(t, cfg)
		f, err := v.Create("model/first", payload(600, 1))
		if err != nil {
			t.Fatal(err)
		}
		g := d.Geometry()
		dataCyl := g.Cylinder(int(f.e.Runs[0].Start))
		dist := func(addr int) int { return max(g.Cylinder(addr)-dataCyl, dataCyl-g.Cylinder(addr)) }
		nt, lg := v.ModelInfo()
		if nt != dist(v.lay.ntA) || lg != dist(v.lay.logBase) {
			t.Fatalf("edge=%v: ModelInfo = (%d, %d) cylinders; the first small create at %d is (%d, %d) from the name table and the log",
				edge, nt, lg, f.e.Runs[0].Start, dist(v.lay.ntA), dist(v.lay.logBase))
		}
	}
}

// groupVolume formats a volume that holds writes, with a group-commit
// interval long enough that only the test's own Force ends a commit group.
func groupVolume(t *testing.T, dataCachePages int) (*Volume, *disk.Disk) {
	t.Helper()
	cfg := testConfig()
	cfg.GroupCommitInterval = time.Hour
	cfg.DataCachePages = dataCachePages
	v, d, _ := newTestVolumeWith(t, cfg)
	return v, d
}

// forced runs v.Force and fails the test on error.
func forced(t *testing.T, v *Volume) {
	t.Helper()
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCreatesShareACylinder: after a churn that leaves one hole on each
// of the three cylinders nearest the metadata and ten on the fourth, a commit
// group of six small creates — after a group of three — goes to the fourth
// cylinder, in the order the head meets them, and the force's pass writes
// all six with one seek and at most one revolution of rotational wait.
// Alloc alone would take the highest holes, on four cylinders.
func TestGroupCreatesShareACylinder(t *testing.T) {
	v, d := groupVolume(t, 0)
	g := d.Geometry()
	top := g.Cylinder(v.lay.boundary - 1)
	// Fill the four cylinders below the metadata with 2-page files.
	byCyl := map[int][]string{}
	for i := 0; ; i++ {
		name := fmt.Sprintf("fill/f%04d", i)
		f, err := v.Create(name, payload(300, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		c := g.Cylinder(int(f.e.Runs[0].Start))
		if c < top-3 {
			break
		}
		if alloc.Pages(f.e.Runs) != 2 || len(f.e.Runs) != 1 {
			t.Fatalf("fill file %s has runs %v", name, f.e.Runs)
		}
		byCyl[c] = append(byCyl[c], name)
		if i%100 == 99 {
			forced(t, v)
		}
	}
	forced(t, v)
	for c := top; c > top-3; c-- {
		if err := v.Delete(byCyl[c][len(byCyl[c])/2], 0); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 10; k++ {
		if err := v.Delete(byCyl[top-3][5+30*k], 0); err != nil {
			t.Fatal(err)
		}
	}
	// The group before: three creates, which the holes are not free for yet.
	for i := 0; i < 3; i++ {
		if _, err := v.Create(fmt.Sprintf("before/f%d", i), payload(300, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	forced(t, v)

	st0 := v.Stats().Commit
	var runs []alloc.Run
	for i := 0; i < 6; i++ {
		f, err := v.Create(fmt.Sprintf("group/f%d", i), payload(200+50*i, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, f.e.Runs...)
	}
	var writes []disk.OpEvent
	d.SetOpObserver(func(e disk.OpEvent) {
		v.observeDiskOp(e)
		if e.Write && v.lay.region(e.Addr) == regionData {
			writes = append(writes, e)
		}
	})
	forced(t, v)
	d.SetOpObserver(v.observeDiskOp)
	st1 := v.Stats().Commit
	if st1.Forces-st0.Forces != 1 || st1.GroupCreates-st0.GroupCreates != 6 {
		t.Fatalf("%d forces, %d of 6 creates placed by the group rule (runs %v)", st1.Forces-st0.Forces, st1.GroupCreates-st0.GroupCreates, runs)
	}
	cyls := map[int]bool{}
	seeks, rot, sectors := 0, time.Duration(0), 0
	for _, e := range writes {
		cyls[g.Cylinder(e.Addr)] = true
		if e.Seek > 0 {
			seeks++
		}
		rot += e.Rot
		sectors += e.Sectors
	}
	if len(cyls) != 1 || seeks != 1 || sectors != 12 {
		t.Errorf("the pass wrote %d sectors on %d cylinders with %d seeks (runs %v); want 12 on one, one seek", sectors, len(cyls), seeks, runs)
	}
	if rev := d.Params().Revolution(); rot > rev {
		t.Errorf("the pass waited %v for rotation, more than a revolution (%v); runs %v", rot, rev, runs)
	}
	if c := g.Cylinder(int(runs[0].Start)); c != top-3 {
		t.Errorf("the group went to cylinder %d; the first below the metadata with room for six is %d", c, top-3)
	}
}

// TestGroupPlacementStaysAboveSmallFiles: over a churn of small creates,
// deletes and forces, no page the group rule hands out lies below the
// lowest allocated page of the small-file area at that moment — the rule
// reuses the holes among the files and never opens fresh space below them.
func TestGroupPlacementStaysAboveSmallFiles(t *testing.T) {
	v, _ := groupVolume(t, 0)
	rng := rand.New(rand.NewSource(5))
	var live []string
	grouped := 0
	for i := 0; i < 3000; i++ {
		switch r := rng.Intn(10); {
		case r < 4 && len(live) > 100:
			k := rng.Intn(len(live))
			if err := v.Delete(live[k], 0); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case r == 9:
			forced(t, v)
		default:
			v.vmMu.Lock()
			floor := v.vm.FirstAllocated(v.lay.dataLo, v.lay.boundary)
			v.vmMu.Unlock()
			before := v.Stats().Commit.GroupCreates
			name := fmt.Sprintf("churn/f%05d", i)
			f, err := v.Create(name, payload(1+rng.Intn(7*disk.SectorSize), byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, name)
			if v.Stats().Commit.GroupCreates == before {
				continue
			}
			grouped++
			if start := int(f.e.Runs[0].Start); start < floor {
				t.Fatalf("create %d placed by the group rule at %d, below the lowest small file at %d", i, start, floor)
			}
		}
	}
	if grouped < 500 {
		t.Fatalf("only %d creates placed by the group rule; the churn no longer tests it", grouped)
	}
	// Every create is counted once, by the rule or by why Alloc placed it.
	st := v.Stats().Commit
	if n := st.GroupCreates + st.AllocCreates + st.NoRoomCreates + st.FullCylinderCreates; n != v.Stats().Ops.Creates {
		t.Fatalf("%d creates counted by placement (%d grouped, %d Alloc's, %d no room, %d cylinder full), %d made",
			n, st.GroupCreates, st.AllocCreates, st.NoRoomCreates, st.FullCylinderCreates, v.Stats().Ops.Creates)
	}
}

// TestRawPathPlacementIsAlloc: on the paper's raw path (no data cache,
// nothing held) every create's run table is the one Alloc gives on the
// allocation map as it stood — checked against a second allocator over a
// copy of the map — and the group rule places nothing.
func TestRawPathPlacementIsAlloc(t *testing.T) {
	v, _ := groupVolume(t, -1)
	rng := rand.New(rand.NewSource(6))
	var live []string
	creates := 0
	for i := 0; i < 600; i++ {
		if len(live) > 50 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			if err := v.Delete(live[k], 0); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		if i%7 == 6 {
			forced(t, v)
		}
		size := rng.Intn(12 * disk.SectorSize)
		v.vmMu.Lock()
		twin := vam.New(v.vm.Pages())
		for p := 0; p < twin.Pages(); p++ {
			if v.vm.IsFree(p) {
				twin.MarkFree(p, 1)
			}
		}
		v.vmMu.Unlock()
		ta, err := alloc.New(twin, v.al.Config())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ta.Alloc(1 + (size+disk.SectorSize-1)/disk.SectorSize)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("raw/f%04d", i)
		f, err := v.Create(name, payload(size, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		creates++
		live = append(live, name)
		if !slices.Equal(f.e.Runs, want) {
			t.Fatalf("create %d (%d bytes) got runs %v; Alloc gives %v", i, size, f.e.Runs, want)
		}
	}
	if st := v.Stats().Commit; st.GroupCreates != 0 || st.AllocCreates != creates {
		t.Fatalf("raw path: %d creates placed by the group rule, %d by Alloc; want 0 and %d", st.GroupCreates, st.AllocCreates, creates)
	}
}

// TestAllocCreatesByCause: the creates that fall to Alloc are counted by
// cause. On a fresh volume no small file sets a floor, so the group's first
// create finds no cylinder with room for an anchor, and each later one finds
// no hole after the one before on the cylinder Alloc chose; an empty create
// and a big one are Alloc's because the group rule does not apply to them.
func TestAllocCreatesByCause(t *testing.T) {
	v, _ := groupVolume(t, 0)
	for i := 0; i < 5; i++ {
		if _, err := v.Create(fmt.Sprintf("cause/f%d", i), payload(700, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Create("cause/empty", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("cause/big", payload(64*disk.SectorSize, 9)); err != nil {
		t.Fatal(err)
	}
	st := v.Stats().Commit
	if st.NoRoomCreates != 1 || st.FullCylinderCreates != 4 || st.AllocCreates != 2 || st.GroupCreates != 0 {
		t.Fatalf("creates by cause: %d no room, %d cylinder full, %d Alloc's, %d grouped; want 1, 4, 2, 0",
			st.NoRoomCreates, st.FullCylinderCreates, st.AllocCreates, st.GroupCreates)
	}
}
