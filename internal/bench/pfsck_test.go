package bench

import (
	"testing"
)

// TestPFsckShape: the formula the report used to publish beside its runs —
// a pass that overlaps its check CPU with its device sweep costs
// max(arm, pool/k) — is a bound the runs are held to, not a column. On a small
// volume at widths 1 and 4 (identical output is asserted by pfsckRun itself),
// each measured point lies within 10 % of max(arm, pool/k) plus what cannot
// overlap: for the salvage sweep one checkpoint interval, whose read has no
// decode beside it; for Verify the name-table walk, which nothing runs beside.
func TestPFsckShape(t *testing.T) {
	if testing.Short() {
		t.Skip("populates and salvages a volume twice")
	}
	rep, err := pfsckRun(4_000_000, 4*1024, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries < 1024 {
		t.Fatalf("%d entries: too few chunks for width 4 to matter", rep.Entries)
	}
	intervals := float64(rep.SweepSectors) / (32 * 64)
	for i, k := range []float64{1, 4} {
		sr := rep.Salvage[i]
		bound := max(sr.ArmS, sr.PoolS/k)
		if limit := 1.1*bound + bound/intervals; sr.MeasuredS > limit || sr.HiddenS <= 0 {
			t.Errorf("salvage sweep at %v workers: measured %.1f s (hidden %.1f), want at most %.1f = 1.1 x max(arm %.1f, pool %.1f / %v) + an interval",
				k, sr.MeasuredS, sr.HiddenS, limit, sr.ArmS, sr.PoolS, k)
		}
		vr := rep.Verify[i]
		bound = max(vr.ArmS, vr.PoolS/k)
		if limit := 1.1*bound + rep.VerifyWalkS; vr.MeasuredS > limit || vr.HiddenS <= 0 {
			t.Errorf("verify at %v workers: measured %.1f s (hidden %.1f), want at most %.1f = 1.1 x max(arm %.1f, pool %.1f / %v) + the walk's %.1f",
				k, vr.MeasuredS, vr.HiddenS, limit, vr.ArmS, vr.PoolS, k, rep.VerifyWalkS)
		}
		t.Logf("k=%v verify %.2f s (arm %.2f, pool %.2f, hidden %.2f)  sweep %.1f s (arm %.1f, pool %.1f, hidden %.1f)",
			k, vr.MeasuredS, vr.ArmS, vr.PoolS, vr.HiddenS, sr.MeasuredS, sr.ArmS, sr.PoolS, sr.HiddenS)
	}
	if rep.Salvage[1].Speedup < 3 || rep.Verify[1].Speedup <= 1 {
		t.Errorf("width 4 speeds the sweep up %.2fx and Verify %.2fx", rep.Salvage[1].Speedup, rep.Verify[1].Speedup)
	}
}
