package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestLogDivisionsComeFromTheVolume: the log's division count is fixed at
// Format and read back from the log's anchor, not from the mount's Config. A
// volume formatted in four divisions and crash-mounted with the default
// config, or formatted in three and mounted with four, recovers every forced
// create and verifies clean. (Walked with the mount's count, the log's record
// positions do not line up and replay stops early: 180 and 125 of the 600
// creates went missing, and Verify still passed.)
func TestLogDivisionsComeFromTheVolume(t *testing.T) {
	for _, c := range []struct{ format, mount int }{{4, 0}, {3, 4}} {
		t.Run(fmt.Sprintf("format%d-mount%d", c.format, c.mount), func(t *testing.T) {
			cfg := testConfig()
			cfg.LogSectors = 4 + 4*150
			cfg.Thirds = c.format
			v, d, _ := newTestVolumeWith(t, cfg)
			const creates = 600
			for i := 0; i < creates; i++ {
				if _, err := v.Create(fmt.Sprintf("d/f%04d", i), payload(300, byte(i))); err != nil {
					t.Fatal(err)
				}
				if i%20 == 19 {
					if err := v.Force(); err != nil {
						t.Fatal(err)
					}
				}
			}
			v.Crash()
			d.Revive()
			cfg.Thirds = c.mount
			v2, _, err := Mount(d, cfg)
			if err != nil {
				t.Fatalf("Mount: %v", err)
			}
			missing := 0
			for i := 0; i < creates; i++ {
				if _, err := v2.Open(fmt.Sprintf("d/f%04d", i), 0); err != nil {
					missing++
				}
			}
			vs, err := v2.Verify()
			if err != nil || missing != 0 || len(vs.Problems) != 0 {
				t.Fatalf("%d of %d forced creates missing; Verify: %v %v", missing, creates, err, vs.Problems)
			}
		})
	}
}

// TestNameTableCopiesComeFromTheLayout: how many name-table copies a volume
// keeps is fixed at Format and recorded in its layout. A two-copy volume
// mounted with SingleCopyNT set still writes both copies, so after 300 creates
// and a Shutdown they agree page for page. (Following the mount's Config, copy
// B got no write at all and 20 pages differed.)
func TestNameTableCopiesComeFromTheLayout(t *testing.T) {
	v, d, _ := newTestVolume(t)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SingleCopyNT = true
	v2, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := v2.Create(fmt.Sprintf("c/f%03d", i), payload(200, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	lay := v2.lay
	if lay.ntB == lay.ntA {
		t.Fatal("the two-copy volume's layout has one copy")
	}
	differ := 0
	for id := 0; id < lay.ntPages; id++ {
		a, b := lay.ntPageAddrs(uint32(id))
		pa, errA := d.ReadSectors(a, NTPageSectors)
		pb, errB := d.ReadSectors(b, NTPageSectors)
		if errA != nil || errB != nil || !bytes.Equal(pa, pb) {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d name-table pages differ between the copies", differ, lay.ntPages)
	}
}
