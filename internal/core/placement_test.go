package core

import (
	"fmt"
	"testing"
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
